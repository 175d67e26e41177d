"""The tfcns benchmark.

    python3 perfbench/run.py --workload train_desk --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a checkout. Each workload is a closed loop with one
caller. The runner starts one process at a time (perfbench/workload.py);
each process builds its inputs from the seed, sets up, runs a fixed number
of units and exits. A run on any seed other than the default first starts
one process on the default seed, whose outputs are compared with the
committed references in perfbench/reference/. Then SETUP_PROCESSES
processes only set up, and timed processes are started while the next one
still fits into --seconds, counted from the start of the run, and at least
MIN_PROCESSES of them.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, and the spans of the traced
processes are written to .perfbench_out/. The metric names and units are
those of BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
BLAS_THREADS = 1
MIN_PROCESSES = 2
SETUP_PROCESSES = 8
# A run ends within this many seconds, or --seconds plus a minute if that is
# longer, even if processes hang: the last one is killed at the limit and its
# unreported units count as failed.
RUN_LIMIT_S = 165

# units: units per process. check_units: units of the default-seed process
# that checks the references on runs with another seed.
WORKLOADS = {
    "train_desk": {"units": 16, "check_units": 4},
    "train_wide": {"units": 24, "check_units": 4},
    "infer_224": {"units": 3, "check_units": 1},
}

def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics that BENCHMARK.json lists under `kind`
    ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TFCNS_THREADS"] = "1"  # batches prepared by the one caller, no prefetch pool
    return env


def run_process(workload: str, seed: int, units: int, deadline: float, trace_out=None) -> dict:
    """Start one workload process, wait for it, and parse its events. A
    process that crashes, is killed or is still running at `deadline`
    (time.monotonic()) keeps the units it reported; the rest count as failed."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--units", str(units)]
    if seed == DEFAULT_SEED:
        cmd += ["--reference", f"reference/{workload}.json"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - t0))
        stdout, status = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, status = exc.stdout or b"", "timeout"
    result = {"seed": seed, "planned": units, "traced": bool(trace_out), "status": status,
              "wall_s": time.monotonic() - t0, "units": [], "setup": None, "end": None,
              "errors": []}
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = event.pop("event", None) if isinstance(event, dict) else None
        if kind == "unit":
            result["units"].append(event)
        elif kind in ("setup", "end"):
            result[kind] = event
        elif kind == "error":
            result["errors"].append(event["why"])
    return result


def cpu_ticks() -> tuple:
    """(all, steal) jiffies of the machine's CPUs so far, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return sum(fields), fields[7]


def tail(samples: list) -> tuple:
    """The highest whole percentile with at least ten samples above it, by
    nearest rank: (value, percentile, sample count). With ten samples or
    fewer no percentile qualifies, and the maximum is given as the 100th."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100, n
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return xs[rank - 1], pct, n


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units=None) -> dict:
    """One run of `workload`; returns the result that main() prints. `units`
    replaces the workload's units per process (the self-check runs one)."""
    spec = WORKLOADS[workload]
    units = units or spec["units"]
    OUT_DIR.mkdir(exist_ok=True)
    for stale in OUT_DIR.glob(f"trace-{workload}-seed{seed}-p*.json"):
        stale.unlink()
    load_before, cpu_before = os.getloadavg(), cpu_ticks()
    start = time.monotonic()
    deadline = start + max(RUN_LIMIT_S, seconds + 60)
    check = None
    if seed != DEFAULT_SEED:
        check = run_process(workload, DEFAULT_SEED, spec["check_units"], deadline)
    # set-up-only processes add set-up samples without running a unit
    setup_only = [run_process(workload, seed, 0, deadline) for _ in range(SETUP_PROCESSES)]
    procs = []
    while time.monotonic() < deadline and (len(procs) < MIN_PROCESSES or time.monotonic() - start
                                           + statistics.mean(p["wall_s"] for p in procs) <= seconds):
        # a traced run alternates untraced and traced processes, untraced first
        traced = trace and len(procs) % 2 == 1
        trace_out = OUT_DIR / f"trace-{workload}-seed{seed}-p{len(procs)}.json" if traced else None
        procs.append(run_process(workload, seed, units, deadline, trace_out))
    load_after, cpu_after = os.getloadavg(), cpu_ticks()

    # A unit fails if its process says so, if it never reported (crash, kill,
    # timeout), or if its output differs from the same unit in the first
    # process of this seed: the program is deterministic in (seed, unit).
    attempted = failed = 0
    first = {}
    for p in procs + ([check] if check else []):
        attempted += p["planned"]
        failed += p["planned"] - len(p["units"])
        for u in p["units"]:
            if p["seed"] == seed:
                expected = first.setdefault(u["i"], u["digest"])
                if u["digest"] != expected:
                    u["ok"], u["why"] = False, f"output {u['digest']} != {expected} of first process"
            failed += not u["ok"]

    timed = [p for p in procs if not p["traced"]]
    ok_units = [u for p in timed for u in p["units"] if u["ok"]]
    unit_ms = [u["ms"] for u in ok_units]
    window_s = sum(u["ms"] for p in timed for u in p["units"]) / 1e3
    setups = [p["setup"]["setup_s"] for p in setup_only + procs if p["setup"]]
    ends = [p["end"] for p in timed if p["end"]]
    units_of = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics = per_layer(procs, timed, unit_ms, units_of)
    else:
        metrics = {
            "samples_per_s": sum(u["images"] for u in ok_units) / window_s if window_s else 0.0,
            "step_ms_p50": statistics.median(unit_ms) if unit_ms else 0.0,
            "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in ends) if ends else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
    env = next((p["setup"]["env"] for p in procs if p["setup"]), {})
    env.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "blas_threads_set": BLAS_THREADS, "loadavg_before": load_before,
                "loadavg_after": load_after, "cpu_steal_pct":
                100 * (cpu_after[1] - cpu_before[1]) / max(1, cpu_after[0] - cpu_before[0])})
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "setup_only": setup_only, "processes": procs, "check": check,
              "result": result}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in setup_only + procs + ([check] if check else []):
        status = [] if p["status"] == 0 else [f"process ended with status {p['status']}"]
        for why in status + p["errors"] + [u["why"] for u in p["units"] if not u["ok"]]:
            print(f"# {workload} seed {p['seed']}: {why}", file=sys.stderr)
    print("# env " + json.dumps(env))
    return result


def per_layer(procs: list, timed: list, unit_ms: list, names) -> dict:
    """Median per traced unit of each span-derived metric (0 where a layer
    never ran), plus what only the untraced processes can give: collections,
    tail latency and overhead."""
    traced_units = [m for p in procs if p["traced"] and p["end"]
                    for m in p["end"]["layers"].values()]
    metrics = {k: statistics.median(m.get(k, 0.0) for m in traced_units) if traced_units
               else 0.0 for k in names}
    traced_ms = [m["unit_ms"] for m in traced_units]
    if traced_ms and unit_ms:
        metrics["trace.overhead"] = statistics.median(traced_ms) / statistics.median(unit_ms)
    ends = [p["end"] for p in timed if p["end"]]
    if ends:
        metrics["autodiff.gc_full_collections"] = statistics.median(
            e["gc_full_collections"] for e in ends)
        n_units = sum(len(p["units"]) for p in timed) or 1
        metrics["autodiff.gc_pause_ms"] = sum(e["gc_pause_ms"] for e in ends) / n_units
    setups = [p["setup"] for p in procs if p["setup"]]
    for key in ("data.load_dataset_ms", "model.checkpoint_load_ms"):
        metrics[key] = statistics.median(s.get(key, 0.0) for s in setups) if setups else 0.0
    metrics["step_ms_tail"], metrics["step_ms_tail.pct"], metrics["step_ms_tail.samples"] = \
        tail(unit_ms)
    return metrics


def summary_line(workload: str, result: dict) -> str:
    end_to_end = metric_units("end_to_end")
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
             if k in end_to_end]
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    return f"# {workload}: " + " ".join(parts) + f" error_rate={rate:.6g}" + \
        f" ({result['failed']}/{result['attempted']} units failed)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tfcns" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary_line(name, results[name]))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
