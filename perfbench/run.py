"""Run one benchmark workload and print its figures as one JSON line.

    python3 perfbench/run.py --workload sparse-paper --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout and served from it as ``python -m repro
serve``; without ``src/repro`` the command exits with status 2 and
prints no result.  Temporary files go to ``.bench_run/`` and are
removed when the run ends; a traced run writes its spans to
``.bench_out/``.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric
of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it give the run's commit, Python
version and CPU count, and the median and tails of every sampled
series.  A failed check prints ``correct: false`` and exits 1.
"""

import time

STARTED = time.perf_counter()     # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _describe_run(args) -> dict:
    """Commit (when the checkout is a git work tree), a digest of the
    program's sources, the Python version and the CPU count."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "cpus": os.cpu_count()}


def _terminated(signum, frame):
    # unwind through the tear-down, which stops and reaps the server
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is absent",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.bench import OPS_PER_ROUND, WORKLOADS, measure
    signal.signal(signal.SIGTERM, _terminated)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    bench, setup_s, failure = measure(WORKLOADS[args.workload], args.seed,
                                      args.seconds, ROOT, bool(args.trace),
                                      STARTED)
    meta = _describe_run(args)
    print("# run " + json.dumps(meta), flush=True)
    if bench.server_exit not in (None, 0):
        print(f"# server exited with {bench.server_exit}", file=sys.stderr)
    if failure is not None:
        print(f"# check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted":
                          max(1, bench.attempted), "failed": bench.failed,
                          "metrics": {}}))
        return 1
    if bench.attempted != bench.rounds * OPS_PER_ROUND:
        raise AssertionError(f"{bench.attempted} operations in "
                             f"{bench.rounds} rounds")
    print(f"# {bench.rounds} rounds; reference (seconds unless noted):",
          flush=True)
    for name, row in bench.reference().items():
        print(f"#   {name:28s} n={row['n']:<5d} min={row['min']:.6g} "
              f"median={row['median']:.6g} max={row['max']:.6g}")
    figures = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        bench.tracer.write(out, dict(meta, rounds=bench.rounds))
        print(f"# spans written to {out.relative_to(ROOT)}; missing "
              f"layers: {sorted(bench.tracer.missing) or 'none'}")
    print(json.dumps({
        "correct": True, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
