"""Benchmark of certified gauge integrals: one seeded workload per run.

    python3 perfbench/run.py --workload interval_ftc --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The workload's op list (see workloads.py) is built from the seed, then run
in a closed loop, one op after another on one thread, in whole passes over
the list until --seconds have passed.  Each op's outcome is checked against
a closed-form oracle.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
ops.  wall_s sums each op's median latency over the run's passes.
op_p50_ms is the median over every op executed.  op_tail_ms is the
quantile 1 - 10/n over every op executed, n being the ops per pass: the
value that ten of the list's ops exceed in each pass.  Every op runs once
per pass, so neither the quantile nor the percentile it names depends on
how many passes fit in a run.

--trace 1 alternates untraced and traced passes over the op list, reports
the per-layer metrics of the traced passes (means over passes), checks
that traced and untraced outcomes are bit-identical, and writes the spans
to perfbench/out/spans-<workload>.npz.

Human-readable lines go first; the last line of stdout is the JSON result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import gaugeint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = dict(tracing.PER_LAYER)


def run_op(op):
    """(latency s, passed, fingerprint, error text) of one op."""
    t0 = time.perf_counter()
    try:
        out = op.call()
        raised = None
    except Exception as exc:  # every outcome is reported, none stops the run
        out = raised = exc
    dt = time.perf_counter() - t0
    err = ""
    try:
        if op.expect is not None:
            ok = isinstance(raised, op.expect) and bool(op.check(raised))
            if not ok:
                err = f"expected {op.expect.__name__}, got {out!r:.200}"
        else:
            ok = raised is None and bool(op.check(out))
            if not ok:
                err = f"{type(raised).__name__}: {raised}" if raised \
                    else "oracle rejected the result"
    except Exception as exc:  # an oracle that cannot read the result fails
        ok, err = False, f"oracle raised {exc!r}"
    return dt, ok, workloads.fingerprint(out), err


def tail(lat: list) -> tuple:
    """(value, percentile) over per-op latency lists of equal length P:
    the highest order statistic with ten ops' worth of executions (10 P)
    above it, or the maximum when the list has ten ops or fewer."""
    n, passes = len(lat), len(lat[0])
    xs = sorted(x for xs in lat for x in xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 10 * passes - 1], 100.0 * (n - 10) / n


def finish(workload, metrics: dict, units: dict, key: str, attempted: int,
           failed: int, errors: list) -> dict:
    """Print every metric by name and check the names against
    BENCHMARK.json; return the result object."""
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[key]]
    names_ok = declared == list(metrics)
    if not names_ok:
        print(f"metric names {list(metrics)} differ from BENCHMARK.json "
              f"{key} {declared}", file=sys.stderr)
    print(f"{workload} fail_ratio {failed / attempted!r} 1 "
          f"({failed} of {attempted} ops)")
    for e in errors[:10]:
        print(f"{workload} FAILED {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload} {name} {value!r} {units[name]}")
    return {"correct": failed == 0 and names_ok,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_untraced(args, import_s: float) -> dict:
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    lat = [[] for _ in ops]
    attempted = failed = 0
    errors = []
    t_start = time.perf_counter()
    while True:
        for j, op in enumerate(ops):
            dt, ok, _fp, err = run_op(op)
            lat[j].append(dt)
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"{op.label}: {err}")
        if time.perf_counter() - t_start >= args.seconds:
            break

    tail_v, tail_p = tail(lat)
    metrics = {
        "wall_s": math.fsum(statistics.median(xs) for xs in lat),
        "op_p50_ms": 1e3 * statistics.median(x for xs in lat for x in xs),
        "op_tail_ms": 1e3 * tail_v,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    w = args.workload
    print(f"{w} setup import_s {import_s!r} build_s {builds}")
    print(f"{w} ops {len(ops)} passes {len(lat[0])}")
    print(f"{w} op_tail_ms is p{tail_p:.2f} over {attempted} op executions "
          f"({10 * len(lat[0])} above it)")
    return finish(w, metrics, END_TO_END, "end_to_end", attempted, failed,
                  errors)


def run_traced(args) -> dict:
    tracer = tracing.Tracer()
    plain = workloads.build(args.workload, args.seed)
    traced = workloads.build(args.workload, args.seed, user=tracer.user)
    labels = [op.label for op in plain]
    if labels != [op.label for op in traced]:
        raise SystemExit("traced and untraced builds differ in their op lists")
    attempted = failed = mismatched = 0
    errors = []
    walls_u, walls_t, per_pass = [], [], []
    first = None
    t_start = time.perf_counter()
    while True:
        wall_u = 0.0
        fps_u = []
        for op in plain:
            dt, ok, fp, err = run_op(op)
            wall_u += dt
            fps_u.append(fp)
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"{op.label}: {err}")
        inst = tracing.install(tracer, gaugeint)
        lo = tracer.mark()
        op_counts = []
        wall_t = 0.0
        try:
            tracer.active = True
            for j, op in enumerate(traced):
                tracer.begin_op(len(walls_t) * len(traced) + j)
                dt, ok, fp, err = run_op(op)
                op_counts.append(tracer.end_op())
                wall_t += dt
                attempted += 1
                if not ok:
                    failed += 1
                    errors.append(f"{op.label} (traced): {err}")
                if fp != fps_u[j]:
                    mismatched += 1
                    errors.append(f"{op.label}: traced outcome differs")
        finally:
            tracer.active = False
            inst.uninstall()
        hi = tracer.mark()
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        per_pass.append(tracing.pass_metrics(tracer, lo, hi, op_counts))
        if first is None:
            first = (tracing.heaviest_layers(tracer, lo, hi), op_counts)
        if time.perf_counter() - t_start >= args.seconds:
            break

    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(walls_t)
                             / statistics.median(walls_u) - 1.0)
        elif len({p[name] for p in per_pass}) == 1:
            metrics[name] = per_pass[0][name]      # counts repeat exactly
        else:
            metrics[name] = statistics.fmean(p[name] for p in per_pass)

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{args.workload}.npz")

    w = args.workload
    heavy, counts = first
    print(f"{w} passes {len(walls_t)} untraced_wall_s {walls_u} "
          f"traced_wall_s {walls_t}")
    print(f"{w} heaviest program layers by self time in the first traced "
          f"pass: " + ", ".join(f"{l} {t:.4f} s" for t, l in heavy[:5]))
    for label, c in zip(labels, counts):
        if label.startswith("hk_integrate sqsin [0.0, 1.0] "):
            print(f"{w} baseline {label}: gauge points {c['gauge.points']} "
                  f"distinct {c['gauge.distinct']} pairs "
                  f"{c['certify.pairs']} shared_mesh_ratio "
                  f"{c['certify.shared_sum'] / c['certify.shared_n']}")
    print(f"{w} bit_identical {mismatched == 0} ({mismatched} of "
          f"{len(plain) * len(walls_t)} traced outcomes differ)")
    return finish(w, metrics, PER_LAYER, "per_layer", attempted,
                  failed + mismatched, errors)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_s = time.perf_counter() - _T0
    if Path(gaugeint.__file__).resolve().parent != (SRC / "gaugeint").resolve():
        raise SystemExit(f"gaugeint imported from {gaugeint.__file__}, "
                         f"not from {SRC}")
    result = run_traced(args) if args.trace else run_untraced(args, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
