"""One benchmark process: set up one workload, run a fixed number of units in a
closed loop, check every unit's output, and stream one JSON object per line
to stdout ({"event": "setup" | "unit" | "error" | "end", ...}).

perfbench/run.py starts this script, one process at a time; it is not meant
to be run by hand. Writing reference outputs is the exception:

    PYTHONPATH=src python3 perfbench/workload.py --workload train_desk --seed 0 \
        --units 16 --write-reference perfbench/reference/train_desk.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
# Results, traces and scratch files of a run: inside the checkout, which is
# the only place a run writes to.
OUT_DIR = HERE.parent / ".perfbench_out"

# Output checks. Reassociated floating-point sums are allowed to change the
# last bits (ROADMAP, aim 3), so references are compared with tolerances:
LOSS_RTOL = 1e-4           # per-step training loss, relative
MASK_AGREEMENT = 0.999     # share of pixels equal to the reference mask
SCORE_ATOL = 0.5           # Dice / Jaccard averages, in percentage points
HD95_RTOL = 0.02           # hd95 average, relative

# Each process caps its own address space so that a memory blow-up fails the
# units cleanly (MemoryError) instead of waking the kernel's OOM killer.
ADDRESS_SPACE_CAP = 6 * 2**30

DESK_MODEL = dict(in_channels=1, num_classes=4, input_size=32, first_conv_channels=16,
                  growth_rate=8, layers_per_block=(2, 2, 2), patch_size=8, embed_dim=32,
                  transformer_layers=2, n_heads=4, dropout_p=0.0)


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


class GcWatch:
    """Counts full (generation-2) collections and total collector pause time."""

    def __init__(self):
        self.full = 0
        self.pause_s = 0.0
        self._t = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t
            self.full += info["generation"] == 2


def train_setup(name: str, seed: int, units: int):
    from tfcns.data import SyntheticSpec, generate_synthetic
    from tfcns.model import ModelConfig
    from tfcns.training import TrainConfig

    if name == "train_desk":
        spec = SyntheticSpec(n_cases=8, height=32, width=32, num_classes=4, noise_sigma=0.02,
                             seed=seed)
        model_cfg = ModelConfig(**DESK_MODEL, seed=seed)
        train_cfg = TrainConfig(lr=0.005, batch_size=8, max_iterations=units, eval_every=0,
                                augment_rotate=False, augment_flip=False, seed=seed)
    else:
        spec = SyntheticSpec(n_cases=8, height=32, width=32, num_classes=9, noise_sigma=0.02,
                             seed=seed, radius_min=2, radius_max=4)
        model_cfg = ModelConfig(num_classes=9, input_size=32, seed=seed)
        train_cfg = TrainConfig(batch_size=1, max_iterations=units, eval_every=0, seed=seed)
    return generate_synthetic(spec), model_cfg, train_cfg


def run_train(args, tracer, reference, clock) -> list:
    """Units are training steps of tfcns.training.train, delimited by its
    per-iteration callback."""
    from tfcns.model import build
    from tfcns.training import train

    data, model_cfg, train_cfg = train_setup(args.workload, args.seed, args.units)
    model = build(model_cfg)
    if tracer:
        tracer.attach_model(model)
    ref = reference["losses"] if reference else []
    losses = []

    def on_step(record):
        now = perf_counter()
        i = record.iteration
        if tracer:
            tracer.end(clock.unit_span)
        loss = record.loss
        why = None
        if loss != loss or loss in (float("inf"), float("-inf")):
            why = f"non-finite loss {loss!r}"
        elif i < len(ref) and abs(loss - ref[i]) > LOSS_RTOL * abs(ref[i]):
            why = f"loss {loss!r} differs from reference {ref[i]!r}"
        losses.append(loss)
        emit(event="unit", i=i, ms=(now - clock.unit_start) * 1e3, images=train_cfg.batch_size,
             ok=why is None, why=why, digest=repr(loss))
        if i + 1 < args.units:
            clock.start_unit(i + 1)

    if not args.units:
        clock.setup_done()
        return losses
    clock.start_unit(0)
    train(model, data, train_cfg, callbacks=[on_step])
    return losses


def infer_setup(seed: int, units: int, work: Path):
    """Writes a paper-default 224^2 P=16 9-class checkpoint and synthetic
    cases as TNSR files into `work`, then loads them the way `tfcns eval` does."""
    from tfcns.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
    from tfcns.model import ModelConfig, build, model_from_checkpoint, save_checkpoint

    save_checkpoint(build(ModelConfig(num_classes=9, seed=seed)), None, work / "model.ckpt")
    save_dataset(work / "cases", generate_synthetic(SyntheticSpec(
        n_cases=max(1, units), height=224, width=224, num_classes=9, noise_sigma=0.02, seed=seed,
        radius_min=12, radius_max=30)))
    t = perf_counter()
    model, _ = model_from_checkpoint(work / "model.ckpt")
    checkpoint_ms = (perf_counter() - t) * 1e3
    t = perf_counter()
    pairs = load_dataset(work / "cases")
    load_ms = (perf_counter() - t) * 1e3
    return model, pairs, {"model.checkpoint_load_ms": checkpoint_ms, "data.load_dataset_ms": load_ms}


def _report_digest(report) -> tuple:
    return (report.dice_avg, report.jaccard_avg, report.hd95_avg)


def check_case(mask, report, ref, num_classes: int):
    import numpy as np

    if mask.shape != (224, 224) or mask.min() < 0 or mask.max() >= num_classes:
        return f"mask shape {mask.shape} or class range wrong"
    dice, jac, hd = _report_digest(report)
    if not (np.isfinite(dice) and np.isfinite(jac) and (hd is None or np.isfinite(hd))):
        return "non-finite score"
    if ref is None:
        return None
    ref_mask, (rdice, rjac, rhd) = ref
    agree = float(np.mean(mask == ref_mask))
    if agree < MASK_AGREEMENT:
        return f"mask agrees with reference on {agree:.5f} of pixels"
    if abs(dice - rdice) > SCORE_ATOL or abs(jac - rjac) > SCORE_ATOL:
        return f"scores {dice!r}/{jac!r} differ from reference {rdice!r}/{rjac!r}"
    if (hd is None) != (rhd is None) or (hd is not None and abs(hd - rhd) > HD95_RTOL * rhd):
        return f"hd95 {hd!r} differs from reference {rhd!r}"
    return None


def run_infer(args, tracer, reference, clock) -> list:
    """Units are `training.evaluate(model, [case])` calls, one case each."""
    import numpy as np

    from tfcns import training

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        model, pairs, setup_ms = infer_setup(args.seed, args.units, Path(work))
    clock.setup_extra.update(setup_ms)
    if tracer:
        tracer.attach_model(model)
    refs = {}
    if reference:
        masks = np.load(HERE / reference["masks"], allow_pickle=False)
        refs = {i: (masks[f"case{i}"], tuple(r)) for i, r in enumerate(reference["reports"])}

    predicted = []
    predict = training.predict

    def capture(model, x):
        out = predict(model, x)
        predicted.append(out)
        return out

    training.predict = capture
    outputs = []
    if not args.units:
        clock.setup_done()
    for i in range(args.units):
        clock.start_unit(i)
        report = training.evaluate(model, [pairs[i % len(pairs)]])
        now = perf_counter()
        if tracer:
            tracer.end(clock.unit_span)
        mask = predicted.pop()[0]
        why = check_case(mask, report, refs.get(i), model.cfg.num_classes)
        digest = hashlib.sha256(mask.astype(np.uint8).tobytes()).hexdigest()[:16]
        outputs.append((mask, _report_digest(report)))
        emit(event="unit", i=i, ms=(now - clock.unit_start) * 1e3, images=1, ok=why is None,
             why=why, digest=f"{digest} {_report_digest(report)!r}")
    return outputs


class Clock:
    """Marks unit starts; the first one also closes the set-up interval."""

    def __init__(self, t0: float, tracer, gc_watch: GcWatch):
        self.t0 = t0
        self.tracer = tracer
        self.gc_watch = gc_watch
        self.unit_start = 0.0
        self.unit_span = -1
        self.first_unit_at = None
        self.setup_extra: dict = {}

    def setup_done(self) -> None:
        self.first_unit_at = time.monotonic()
        emit(event="setup", setup_s=self.first_unit_at - self.t0, env=environment(),
             **self.setup_extra)
        gc.callbacks.append(self.gc_watch)

    def start_unit(self, i: int) -> None:
        if self.first_unit_at is None:
            self.setup_done()
        if self.tracer:
            self.unit_span = self.tracer.start_unit(i)
        self.unit_start = perf_counter()


def write_reference(args, outputs) -> None:
    import numpy as np

    path = Path(args.write_reference)
    doc = {"workload": args.workload, "seed": args.seed, "units": args.units}
    if args.workload.startswith("train"):
        doc["losses"] = outputs
    else:
        masks_name = path.with_suffix(".npz").name
        np.savez_compressed(path.with_suffix(".npz"),
                            **{f"case{i}": m.astype(np.uint8) for i, (m, _) in enumerate(outputs)})
        doc["masks"] = f"{path.parent.name}/{masks_name}"
        doc["reports"] = [list(r) for _, r in outputs]
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("train_desk", "train_wide", "infer_224"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True,
                    help="units to run; 0 sets up and exits (a set-up-only process)")
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--write-reference", default=None)
    args = ap.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import tfcns

    src = Path(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0] or ".").resolve()
    if Path(tfcns.__file__).resolve().parent != src / "tfcns":
        print(f"tfcns imported from {tfcns.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    reference = None
    if args.reference:
        reference = json.loads((HERE / args.reference).read_text(encoding="utf-8"))
    gc_watch = GcWatch()
    clock = Clock(t0, tracer, gc_watch)
    run = run_train if args.workload.startswith("train") else run_infer
    try:
        outputs = run(args, tracer, reference, clock)
    except Exception as exc:  # the unit that raised and every later one count as failed
        traceback.print_exc()
        emit(event="error", why=f"{type(exc).__name__}: {exc}"[:500])
        outputs = None
    if gc_watch in gc.callbacks:
        gc.callbacks.remove(gc_watch)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    end = {"event": "end", "peak_rss_mb": usage.ru_maxrss / 1024,
           "gc_full_collections": gc_watch.full, "gc_pause_ms": gc_watch.pause_s * 1e3,
           "user_s": usage.ru_utime, "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt}
    if tracer:
        end["layers"] = tracer.unit_metrics()
        Path(args.trace_out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fields": ["name", "start", "end", "parent", "unit", "extra"],
            "spans": tracer.spans}), encoding="utf-8")
    emit(**end)
    if args.write_reference and outputs is not None:
        write_reference(args, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
