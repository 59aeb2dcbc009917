"""Benchmark launcher.

    python3 perfbench/run.py --workload paper_20way --seed 1 --seconds 20 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed, imports the library from ``src/`` of the same checkout, measures for
``--seconds`` seconds and checks every output. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
and its per-layer metrics with ``--trace 1``. A fuller record, with the
environment, goes to ``perfbench/out/results/``; a traced run also writes
its spans to ``perfbench/out/spans/``.
"""

import os

# Fixed before numpy loads: one BLAS/OpenMP thread, so numpy starts no
# thread pool that competes with the measured thread on a small machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def git_revision() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="seconds-long inputs, for the smoke check")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "preselect" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np

    import preselect
    if Path(preselect.__file__).resolve().parent.parent != SRC:
        print(f"error: imported preselect from {preselect.__file__}", file=sys.stderr)
        return 2
    import core
    from workloads import WORKLOADS, config_hash, toy

    args = parse_args(argv, WORKLOADS)
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    if args.toy:
        wl = toy(wl)

    workdir = OUT / "work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = core.run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "config_hash": config_hash(wl, {"seconds": args.seconds,
                                        "blas_threads": BLAS_THREADS}),
    }
    stamp = f"{wl.name}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    record = {"env": env, "end_to_end": result["end_to_end"],
              "per_layer": result["per_layer"], "info": result["info"],
              "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results_path = OUT / "results" / f"{stamp}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        result["tracer"].write(OUT / "spans" / f"{stamp}.jsonl")
    for err in ops.errors:
        print(f"check failed: {err}", file=sys.stderr)

    print("env " + json.dumps(env, sort_keys=True))
    info = result["info"]
    print(f"op_failure_ratio {info['op_failure_ratio']} "
          f"({ops.failed} of {ops.attempted} operations)")
    print("samples " + json.dumps(info["samples"], sort_keys=True))
    print(f"results -> {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
