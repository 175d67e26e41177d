"""Losses against analytic values and finite differences; hard metrics
against hand-counted cases and an exhaustive all-pairs distance oracle."""

import numpy as np
import pytest

import tfcns.autodiff as ad
import tfcns.metrics as M
from tfcns.autodiff import Tensor, Tape, backward, grad_check_tensors
from tfcns.data import SyntheticSpec, generate_synthetic
from tfcns.errors import ClassOutOfRange, EmptyMask

from oracles import hd95_bruteforce, hd95_edt, soft_dice_direct

F64 = np.float64


def logits_for(target: np.ndarray, num_classes: int, margin: float = 30.0) -> Tensor:
    """Large-margin logits that predict the target mask perfectly."""
    onehot = M.one_hot(target, num_classes, dtype=F64)
    return Tensor(onehot * margin, dtype=F64)


def random_mask(rng, h, w, p=0.35):
    return (rng.random((h, w)) < p).astype(np.int32)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestDiceLoss:
    def test_perfect_prediction_near_zero(self, rng):
        target = rng.integers(0, 3, size=(2, 6, 6))
        loss = M.dice_loss(logits_for(target, 3), target, 3)
        assert float(loss.data) < 1e-3

    def test_uniform_logits_match_direct_sum_oracle(self, rng):
        target = (rng.random((1, 4, 4)) < 0.5).astype(np.int64)
        logits = Tensor(np.zeros((1, 2, 4, 4)), dtype=F64)
        loss = float(M.dice_loss(logits, target, 2).data)
        probs = np.full((1, 2, 4, 4), 0.5)
        assert abs(loss - soft_dice_direct(probs, target, 2)) < 1e-12

    def test_grad_check(self, rng):
        target = rng.integers(0, 3, size=(1, 4, 4))
        logits = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype=F64)
        err = grad_check_tensors(lambda: M.dice_loss(logits, target, 3), [logits])
        assert err < 1e-5

    def test_rejects_out_of_range_labels(self, rng):
        logits = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=F64)
        with pytest.raises(ClassOutOfRange):
            M.dice_loss(logits, np.full((1, 3, 3), 5), 2)


class TestCrossEntropy:
    def test_uniform_logits_equal_log_k(self, rng):
        for k in (2, 3, 7):
            target = rng.integers(0, k, size=(1, 5, 5))
            logits = Tensor(np.zeros((1, k, 5, 5)), dtype=F64)
            assert abs(float(M.cross_entropy_loss(logits, target).data) - np.log(k)) < 1e-9

    def test_perfect_prediction_near_zero(self, rng):
        target = rng.integers(0, 4, size=(2, 4, 4))
        loss = M.cross_entropy_loss(logits_for(target, 4, margin=40.0), target)
        assert float(loss.data) < 1e-6

    def test_grad_check(self, rng):
        target = rng.integers(0, 3, size=(1, 4, 4))
        logits = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype=F64)
        err = grad_check_tensors(lambda: M.cross_entropy_loss(logits, target), [logits])
        assert err < 1e-5


class TestCombinedLoss:
    def test_equal_weights(self, rng):
        target = rng.integers(0, 3, size=(2, 5, 5))
        logits = Tensor(rng.standard_normal((2, 3, 5, 5)), dtype=F64)
        total, d, c = M.combined_loss_parts(logits, target, 3)
        assert abs(float(total.data) - 0.5 * (float(d.data) + float(c.data))) < 1e-12

    def test_gradient_is_half_sum_of_component_gradients(self, rng):
        target = rng.integers(0, 2, size=(1, 4, 4))
        base = rng.standard_normal((1, 2, 4, 4))

        def grad_of(fn):
            x = Tensor(base.copy(), dtype=F64)
            with Tape() as tape:
                tape.watch(x)
                backward(fn(x))
            return x.grad.copy()

        gd = grad_of(lambda x: M.dice_loss(x, target, 2))
        gc = grad_of(lambda x: M.cross_entropy_loss(x, target))
        gt = grad_of(lambda x: M.combined_loss(x, target, 2))
        assert np.allclose(gt, 0.5 * (gd + gc), rtol=1e-12, atol=1e-15)

    def test_combined_grad_check(self, rng):
        target = rng.integers(0, 2, size=(1, 3, 3))
        logits = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=F64)
        err = grad_check_tensors(lambda: M.combined_loss(logits, target, 2), [logits])
        assert err < 1e-5


# ---------------------------------------------------------------------------
# hard metrics
# ---------------------------------------------------------------------------

class TestDiceJaccardScores:
    def test_identical_masks(self, rng):
        m = random_mask(rng, 8, 8)
        assert M.dice_score(m, m, 1) == 100.0
        assert M.jaccard_score(m, m, 1) == 100.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=int)
        b = np.zeros((4, 4), dtype=int)
        a[0, 0] = 1
        b[3, 3] = 1
        assert M.dice_score(a, b, 1) == 0.0
        assert M.jaccard_score(a, b, 1) == 0.0

    def test_shifted_square_counts(self):
        # 3x3 squares shifted by one row: overlap 6 of 9+9 pixels
        a = np.zeros((5, 5), dtype=int)
        b = np.zeros((5, 5), dtype=int)
        a[0:3, 0:3] = 1
        b[1:4, 0:3] = 1
        assert M.dice_score(a, b, 1) == pytest.approx(200.0 * 6 / 18, abs=1e-12)
        assert M.jaccard_score(a, b, 1) == pytest.approx(100.0 * 6 / 12, abs=1e-12)

    def test_both_empty_convention(self):
        z = np.zeros((3, 3), dtype=int)
        assert M.dice_score(z, z, 1) == 100.0
        assert M.jaccard_score(z, z, 1) == 100.0

    def test_symmetry_and_monotone_identity(self, rng):
        for _ in range(50):
            a, b = random_mask(rng, 10, 10), random_mask(rng, 10, 10)
            d = M.dice_score(a, b, 1)
            j = M.jaccard_score(a, b, 1)
            assert d == M.dice_score(b, a, 1)
            assert j == M.jaccard_score(b, a, 1)
            assert j <= d + 1e-12
            df, jf = d / 100.0, j / 100.0
            assert abs(jf - df / (2.0 - df)) < 1e-9


class TestHD95:
    def test_identical_masks_zero(self, rng):
        m = random_mask(rng, 9, 9)
        if not m.any():
            m[4, 4] = 1
        assert M.hd95(m, m, 1) == 0.0

    def test_three_four_five_triangle(self):
        a = np.zeros((8, 8), dtype=int)
        b = np.zeros((8, 8), dtype=int)
        a[1, 1] = 1
        b[4, 5] = 1  # offset (3, 4)
        assert M.hd95(a, b, 1) == pytest.approx(5.0, abs=1e-9)

    def test_empty_side_raises(self):
        a = np.zeros((4, 4), dtype=int)
        b = np.zeros((4, 4), dtype=int)
        b[1, 1] = 1
        with pytest.raises(EmptyMask):
            M.hd95(a, b, 1)
        with pytest.raises(EmptyMask):
            M.hd95(b, a, 1)

    def test_symmetry(self, rng):
        for _ in range(25):
            a, b = random_mask(rng, 8, 8), random_mask(rng, 8, 8)
            if not (a.any() and b.any()):
                continue
            assert M.hd95(a, b, 1) == M.hd95(b, a, 1)

    def test_matches_bruteforce_oracle_exactly(self, rng):
        checked = 0
        for _ in range(200):
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            a, b = random_mask(rng, h, w), random_mask(rng, h, w)
            expected = hd95_bruteforce(a, b, 1)
            if expected is None:
                continue
            assert M.hd95(a, b, 1) == expected
            checked += 1
        assert checked > 150

    @staticmethod
    def _edge_case_masks():
        """(pred, ref) pairs: single pixels, full masks, border lines, and
        masks whose every column but one is empty."""
        def mask(h, w, *cells):
            m = np.zeros((h, w), dtype=np.int32)
            for i, j in cells:
                m[i, j] = 1
            return m
        full = np.ones((64, 64), dtype=np.int32)
        column = np.zeros((64, 64), dtype=np.int32)
        column[:, 63] = 1
        return [
            (mask(1, 1, (0, 0)), mask(1, 1, (0, 0))),
            (mask(64, 64, (0, 0)), mask(64, 64, (63, 63))),
            (full, mask(64, 64, (31, 17))),
            (full, full),
            (column, mask(64, 64, (0, 0), (63, 0))),
            (column.T.copy(), column),
            (mask(1, 64, (0, 3)), np.ones((1, 64), dtype=np.int32)),
            (np.ones((64, 1), dtype=np.int32), mask(64, 1, (40, 0))),
        ]

    def test_bit_identical_to_distance_transform_oracle(self):
        rng = np.random.default_rng(19)
        pairs = self._edge_case_masks()
        while len(pairs) < 300:
            h, w = (int(n) for n in rng.integers(1, 65, 2))
            a, b = (random_mask(rng, h, w, p=float(rng.uniform(0.02, 0.9))) for _ in range(2))
            for m in (a, b):  # empty some columns, so that no target sits in them
                m[:, rng.random(w) < 0.3] = 0
            if a.any() and b.any():
                pairs.append((a, b))
        for a, b in pairs:
            assert M.hd95(a, b, 1) == hd95_edt(a, b, 1), (a.shape, a.sum(), b.sum())

    def test_bit_identical_to_oracle_on_a_224_map_of_nine_classes(self):
        ref = generate_synthetic(SyntheticSpec(n_cases=1, height=224, width=224, num_classes=9,
                                               noise_sigma=0.02, seed=3, radius_min=12, radius_max=30))[0].mask
        rng = np.random.default_rng(4)
        pred = np.roll(ref, (2, -3), axis=(0, 1))
        noisy = rng.random(pred.shape) < 0.02
        pred[noisy] = rng.integers(0, 9, int(noisy.sum()))
        for c in range(9):
            assert M.hd95(pred, ref, c) == hd95_edt(pred, ref, c), c

    def test_wide_map_sums_squares_without_overflow(self):
        # 5 * 21000^2 >= 2^31: an empty column's squared distance plus dx^2 would wrap in int32
        a = np.zeros((1, 21000), dtype=np.int32)
        b = np.zeros((1, 21000), dtype=np.int32)
        a[0, :50] = 1
        b[0, 20900:] = 1
        assert M.hd95(a, b, 1) == hd95_edt(a, b, 1)
        assert 20851 <= M.hd95(a, b, 1) <= 20950  # the nearest and farthest boundary pairs

    def test_boundary_is_four_adjacent_and_border_counts(self):
        m = np.ones((3, 3), dtype=bool)
        boundary = M.boundary_pixels(m)
        assert boundary.sum() == 8  # center pixel is interior
        assert not boundary[1, 1]


class TestAggregation:
    def test_single_case_passthrough(self, rng):
        pred = random_mask(rng, 8, 8)
        ref = random_mask(rng, 8, 8)
        case = M.evaluate_case(pred, ref, 2)
        report = M.aggregate([case])
        assert report.n_cases == 1
        assert report.per_class[1].dice == case[1].dice
        assert report.dice_avg == case[1].dice

    def test_two_case_average(self):
        c1 = {0: M.ClassStats(100, 100, 0.0), 1: M.ClassStats(80, 70, 2.0)}
        c2 = {0: M.ClassStats(100, 100, 0.0), 1: M.ClassStats(90, 80, 4.0)}
        report = M.aggregate([c1, c2])
        assert report.per_class[1].dice == 85.0
        assert report.dice_avg == 85.0
        assert report.per_class[1].hd95 == 3.0

    def test_all_missing_hd95_is_omitted_and_flagged(self):
        c1 = {0: M.ClassStats(100, 100, 1.0), 1: M.ClassStats(50, 40, None, 1)}
        c2 = {0: M.ClassStats(100, 100, 1.0), 1: M.ClassStats(60, 50, None, 1)}
        report = M.aggregate([c1, c2])
        assert report.per_class[1].hd95 is None
        assert report.per_class[1].hd95_missing == 2
        assert report.hd95_avg is None

    def test_tsv_layout(self):
        case = {0: M.ClassStats(100, 100, 0.0), 1: M.ClassStats(80, 70, 2.0),
                2: M.ClassStats(60, 50, 4.0)}
        text = M.aggregate([case]).to_tsv()
        lines = text.splitlines()
        assert lines[0] == "Method\tDice(avg)\tHd95(avg)\tJaccard(avg)\tDice(class1)\tDice(class2)"
        assert lines[1].split("\t")[0] == "TFCNs"
        assert lines[1].split("\t")[1] == "70.00"
