"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced, and
asserts that the last output line has exactly the keys correct, attempted,
failed and metrics, that no check failed, and that every metric BENCHMARK.json
names is printed, finite, with its unit. It also asserts that the benchmark
refuses to run, without printing a result, from a copy that holds only
BENCHMARK.json and perfbench/. Takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(proc, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    if out.get("correct") is not True or out.get("failed") != 0:
        problems.append(f"correct {out.get('correct')} failed {out.get('failed')}")
    if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
        problems.append(f"attempted {out.get('attempted')}")
    metrics = out.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ names)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_output(run_bench(ROOT, wl["name"], trace), spec[key])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{wl['name']} trace {trace}: {status}", flush=True)
            failures += bool(problems)

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"bare copy refused: {'ok' if refused else 'FAIL'}", flush=True)
        failures += not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
