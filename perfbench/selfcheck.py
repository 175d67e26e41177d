"""Harness self-check: runs every workload at a tiny length (one unit per
process), traced and untraced, and asserts that each metric named in
BENCHMARK.json is emitted with its unit, that the outputs pass their checks,
and that the benchmark refuses to run where the program's sources are missing.

    python3 perfbench/selfcheck.py        # from the root of a checkout, about two minutes
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    listed = {w["name"] for w in spec["workloads"]}
    if listed != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(listed)} are not those of run.py "
                        f"{sorted(run.WORKLOADS)}")
    for workload in run.WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            where = f"{workload} --trace {int(trace)}"
            before = len(problems)
            try:
                result = run.run_workload(workload, 1, 1.0, trace, units=1)
            except Exception as exc:
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            names = {m["name"]: m["unit"] for m in wanted}
            if set(result["metrics"]) != set(names):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ set(names))}")
            for name, unit in names.items():
                got = result["metrics"].get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {name} = {got}, expected a number in {unit}")
            if len(problems) == before:
                print(f"ok   {where}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} units", flush=True)

    # A checkout that holds only BENCHMARK.json and the benchmark's own files.
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   without the program: exit {proc.returncode}, no result")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
