"""The evaluation metrics on hand-checkable masks: Dice and Jaccard overlap
counts, the 95th-percentile Hausdorff distance, and how per-case results
aggregate into a report with missing-value handling.

Run:  python3 demos/04_segmentation_metrics.py
"""

import numpy as np

import tfcns.metrics as M

# --- two squares shifted by one row ---------------------------------------
a = np.zeros((5, 5), dtype=int)
b = np.zeros((5, 5), dtype=int)
a[0:3, 0:3] = 1
b[1:4, 0:3] = 1
print("shifted 3x3 squares: overlap 6 of 9+9 pixels")
print(f"  dice    = {M.dice_score(a, b, 1):.2f}   (2*6/18 * 100)")
print(f"  jaccard = {M.jaccard_score(a, b, 1):.2f}   (6/12 * 100)")

# --- the 3-4-5 triangle ----------------------------------------------------
p = np.zeros((8, 8), dtype=int)
r = np.zeros((8, 8), dtype=int)
p[1, 1] = 1
r[4, 5] = 1
print(f"single pixels offset (3,4): hd95 = {M.hd95(p, r, 1)}")

# --- boundaries are 4-adjacent, image border counts as background ----------
solid = np.ones((4, 4), dtype=bool)
print("boundary of a solid 4x4 block has", int(M.boundary_pixels(solid).sum()), "pixels (ring of 12)")

# --- aggregation with a missing hd95 ---------------------------------------
case1 = M.evaluate_case(a, b, num_classes=2)
empty_pred = np.zeros((5, 5), dtype=int)
case2 = M.evaluate_case(empty_pred, b, num_classes=2)  # class 1 missing in prediction
report = M.aggregate([case1, case2])
print("aggregated over 2 cases (one with an empty prediction):")
print(f"  class 1: dice {report.per_class[1].dice:.2f}, "
      f"hd95 {report.per_class[1].hd95}, missing count {report.per_class[1].hd95_missing}")
print(report.to_tsv().rstrip())
