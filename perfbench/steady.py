"""Check that the benchmark is steady, and report the spread of the paper's
ratios across runs.

    python3 perfbench/steady.py run --workload paper_20way --seeds 0-9
    python3 perfbench/steady.py ratios

``run`` runs the benchmark once per seed, one run at a time, and prints for
every end-to-end metric its median over the runs and the distance between
the first and third quartile as a share of that median, next to the
metric's bound in BENCHMARK.json. ``ratios`` reads every saved result under
perfbench/out/results/ and prints, per workload, the distribution of
``selector.heavy_ratio`` and ``selector.scoring_overhead`` over all runs
and over all criterion-6-sized passes inside them, with the share of passes
over the paper's limits (0.65 and 0.10). It reports only; it gates nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LIMITS = {"heavy_ratio": 0.65, "scoring_overhead": 0.10}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / |median|), quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def cmd_run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f}s correct {out['correct']} "
              f"failed {out['failed']}/{out['attempted']}", flush=True)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name, vals in values.items():
        med, rel = spread(vals)
        if name != "setup_s":
            worst = max(worst, rel / bounds[name])
        print(f"{name:24s} median {med:12.5g}  spread {rel:7.4f}  "
              f"bound {bounds[name]:.2f}  spread/bound {rel / bounds[name]:.2f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


def cmd_ratios(args) -> int:
    runs: dict[str, dict[str, list[float]]] = {}
    passes: dict[str, dict[str, list[float]]] = {}
    for path in sorted((BENCH_DIR / "out" / "results").glob("*.json")):
        rec = json.loads(path.read_text())
        wl = rec["env"]["workload"] + (" (toy)" if rec["env"].get("toy") else "")
        for key in LIMITS:
            vals = rec["info"][f"{key}_passes"]
            passes.setdefault(wl, {}).setdefault(key, []).extend(vals)
            if vals:
                runs.setdefault(wl, {}).setdefault(key, []).append(statistics.median(vals))
    for wl in sorted(passes):
        for key, limit in LIMITS.items():
            for label, vals in (("runs", runs[wl][key]), ("passes", passes[wl][key])):
                if len(vals) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                over = sum(v > limit for v in vals)
                print(f"{wl:24s} {key:17s} {label:6s} n={len(vals):4d} min {min(vals):.4f} "
                      f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} max {max(vals):.4f} "
                      f"over {limit}: {over}/{len(vals)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    r.add_argument("--seconds", type=float, default=None)
    r.set_defaults(func=cmd_run)
    sub.add_parser("ratios").set_defaults(func=cmd_ratios)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
