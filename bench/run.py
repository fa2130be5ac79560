"""Seeded benchmark of the weak-Fréchet pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload's inputs are generated from the seed, run
through the public library API in one process and one thread (closed loop,
one caller), and every output is checked.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it holds run metadata.

The timed phase runs the workload's pass S divided by its nominal length
(at least two) times over, and an operation's time is the median over these
rounds: on a shared machine the host's other load slows single operations by
up to a factor of two.  With --trace 0 it reports the end-to-end metrics:

    solve_s      wall time of one pass: the sum over its operations of each
                 operation's median wall time
    cpu_s        the same sum of median process CPU times
    setup_s      median of five package imports (numpy included), each in
                 a fresh interpreter, plus the median of five builds of the
                 inputs (generation, validation, choice of eps values)
    peak_rss_mb  peak resident memory of the process

The share of operations whose output failed a check is failed / attempted;
the metadata line also gives every operation's time in every round.  With
--trace 1 it runs the pass traced and then untraced, and reports the
per-layer metrics of tracer.py plus the traced pass time and the tracing
overhead (traced minus untraced wall time).

Every output is also compared with the outputs recorded in reference.json
within the criterion-07 tolerance.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_reference(workload):
    return json.loads(REFERENCE.read_text())[workload]


def run_pass(ops):
    """Run one pass; returns ([(wall s, cpu s) per operation], outputs)."""
    times, outs = [], []
    for op in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        outs.append(op.run())
        times.append((time.perf_counter() - t0, time.process_time() - c0))
    return times, outs


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "frechet_surfaces").rglob("*.py")))


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import frechet_surfaces; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Wall times of importing the package in fresh interpreters."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout)
            for _ in range(SETUP_REPEATS)]


def use_checkout_source():
    """Put this checkout's package source first on the import path; False
    when the checkout has no package source."""
    if not (SRC / "frechet_surfaces" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    if not use_checkout_source():
        return 2
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    build, pass_seconds, why = workloads.WORKLOADS[args.workload]
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = build(args.seed)
        build_s.append(time.perf_counter() - t)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    reference = load_reference(args.workload)

    attempted = 0
    failures = []

    def account(outs):
        nonlocal attempted
        for op, out in zip(ops, outs):
            attempted += 1
            fails = workloads.judge(op, out, reference)
            if fails:
                failures.append({"op": op.key, "failures": fails})

    meta = {"workload": args.workload, "why": why, "seed": args.seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines(),
            "import_s": import_s, "build_s": build_s}

    if args.trace:
        import tracer
        with tracer.Tracer() as tr:
            times, outs = run_pass(ops)
        account(outs)
        traced_s = sum(w for w, _ in times)
        times, outs = run_pass(ops)
        account(outs)
        untraced_s = sum(w for w, _ in times)
        metrics = tr.metrics(traced_s)
        metrics["trace.solve_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        meta.update(absent_layers=tr.absent, untraced_solve_s=untraced_s,
                    tracing_overhead_s=traced_s - untraced_s)
    else:
        rounds = max(MIN_ROUNDS, round(args.seconds / pass_seconds))
        per_op = [[] for _ in ops]            # per operation: (wall, cpu) per round
        for _ in range(rounds):
            times, outs = run_pass(ops)
            account(outs)
            for acc, t in zip(per_op, times):
                acc.append(t)
        meta.update(
            rounds=rounds,
            round_wall_s=[sum(t[r][0] for t in per_op) for r in range(rounds)],
            op_wall_s={op.key: [w for w, _ in t] for op, t in zip(ops, per_op)})
        metrics = {
            "solve_s": (sum(statistics.median(w for w, _ in t) for t in per_op), "s"),
            "cpu_s": (sum(statistics.median(c for _, c in t) for t in per_op), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    meta.update(failed_frac=len(failures) / attempted, failures=failures[:20],
                total_s=time.perf_counter() - start)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
