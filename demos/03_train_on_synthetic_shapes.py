"""Train a small model until it fits a synthetic shape dataset, then look at
the metric report and keep a checkpoint + rendered masks for later demos.

Takes roughly half a minute on a laptop CPU.

Run:  python3 demos/03_train_on_synthetic_shapes.py
"""

from pathlib import Path

from tfcns.data import SyntheticSpec, generate_synthetic, save_dataset, write_mask_image
from tfcns.model import ModelConfig, build, predict, save_checkpoint
from tfcns.training import TrainConfig, evaluate, train

out = Path("demo_output")
out.mkdir(exist_ok=True)

pairs = generate_synthetic(SyntheticSpec(
    n_cases=6, height=16, width=16, num_classes=3,
    noise_sigma=0.01, seed=2, radius_min=2, radius_max=3,
))
save_dataset(out / "shapes", pairs)
print(f"dataset       : {len(pairs)} cases of 16x16, classes disk/rect + background")

model = build(ModelConfig(
    in_channels=1, num_classes=3, input_size=16, first_conv_channels=8,
    growth_rate=6, layers_per_block=(2, 2, 2), patch_size=8, embed_dim=16,
    transformer_layers=1, n_heads=2, dropout_p=0.0, seed=0,
))
print(f"model         : {model.param_count():,} parameters, {model.token_count} tokens")

cfg = TrainConfig(lr=0.02, batch_size=6, max_iterations=200, eval_every=50,
                  augment_rotate=False, augment_flip=False, seed=0)
(out / "run" / "training.log").unlink(missing_ok=True)  # a rerun starts a fresh log
log = train(model, pairs, cfg, out_dir=out / "run")
for ev in log.evals:
    print(f"  iter {ev.iteration:4d}: dice {ev.dice:6.2f}  jaccard {ev.jaccard:6.2f}")

report = evaluate(model, pairs)
print("final report  :")
print(report.to_tsv().rstrip())

save_checkpoint(model, None, out / "fitted.ckpt")
mask = predict(model, pairs[0].image[None])[0]
write_mask_image(out / "case000_pred.ppm", mask)
write_mask_image(out / "case000_true.ppm", pairs[0].mask)
print(f"artifacts     : {out}/fitted.ckpt, {out}/case000_pred.ppm, {out}/case000_true.ppm")
