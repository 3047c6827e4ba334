"""Self-tests of the benchmark itself; about two minutes on two cores.

    python3 perfbench/selftest.py

Checks, in order:
  1. the same seed builds the same op list, and another seed another one;
  2. traced and untraced ops give bit-identical outcomes;
  3. hk_core.cousin.intervals agrees with the certificates' family sizes;
  4. every metric name run.py prints matches BENCHMARK.json, in both modes;
  5. the traced counts reproduce the ROADMAP Baseline on x^2 sin(x^-2)
     over [0, 1]: 41,529 gauge points at 5,202 distinct points and 5,191
     pairs per seed at eps=1e-3, identical endpoints in both seeds, and
     47,624 pairs per seed at eps=1e-4.
Exits 1 if any check fails.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gaugeint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import fingerprint  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def traced_call(tracer, op):
    """Outcome and per-op counters of one op run under the tracer."""
    inst = tracing.install(tracer, gaugeint)
    try:
        tracer.active = True
        tracer.begin_op(0)
        out = op.call()
        return out, tracer.end_op()
    finally:
        tracer.active = False
        inst.uninstall()


def test_op_lists():
    for name in workloads.WORKLOADS:
        a = [op.label for op in workloads.build(name, 7)]
        b = [op.label for op in workloads.build(name, 7)]
        c = [op.label for op in workloads.build(name, 8)]
        check(a == b, f"{name}: seed 7 builds the same {len(a)} ops twice")
        check(a != c, f"{name}: seed 8 builds a different op list")


def test_bit_identical():
    # the cheaper ops of each workload; every `--trace 1` run compares all
    # of them
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        plain = workloads.build(name, 3)
        traced = workloads.build(name, 3, user=tracer.user)
        picks = [j for j, op in enumerate(plain)
                 if "eps=0.0001" not in op.label and "witness" not in op.label
                 and "monotone" not in op.label][:12]
        same = True
        for j in picks:
            fp_u = fingerprint(plain[j].call())
            fp_t = fingerprint(traced_call(tracer, traced[j])[0])
            if fp_u != fp_t:
                same = False
                print(f"     differs: {plain[j].label}")
        check(same, f"{name}: {len(picks)} ops bit-identical traced and untraced")


def test_cousin_intervals_match_sizes():
    tracer = tracing.Tracer()
    ops = workloads.build("interval_mesh", 5, user=tracer.user)
    ops += [op for op in workloads.build("interval_ftc", 5, user=tracer.user)
            if "eps=0.01" in op.label][:6]
    agree = True
    for op in ops[1:]:
        res, c = traced_call(tracer, op)
        sizes = sum(res.certificate.sizes)
        if op.kind == "hk_integrate":
            # hk_integrate's sizes count the carve pairs too
            expected = sizes - c.get("carve.pairs", 0)
        else:
            expected = sizes
        if c.get("cousin.intervals", 0) != expected:
            agree = False
            print(f"     {op.label}: cousin intervals "
                  f"{c.get('cousin.intervals')} vs sizes {expected}")
    check(agree, f"cousin intervals match certificate sizes on {len(ops) - 1} ops")


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             "interval_mesh", "--seed", "2", "--seconds", "0", "--trace",
             str(mode)], cwd=ROOT, capture_output=True, text=True,
            timeout=170)
        check(proc.returncode == 0, f"run.py --trace {mode} exits 0")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        printed = list(result["metrics"])
        declared = [m["name"] for m in spec[key]]
        check(printed == declared,
              f"--trace {mode} prints exactly the {key} metrics of "
              f"BENCHMARK.json")
        units = {m["name"]: m["unit"] for m in spec[key]}
        check(all(v["unit"] == units[k] for k, v in result["metrics"].items()),
              f"--trace {mode} units match BENCHMARK.json")
        named = all(any(line.startswith(f"interval_mesh {n} ")
                        for line in lines) for n in declared)
        check(named, f"--trace {mode} prints every metric with its workload")
        check(result["correct"] and result["failed"] == 0,
              f"--trace {mode} run is correct with no failed op")


def test_baseline_counts():
    tracer = tracing.Tracer()
    ops = {op.label: op for op in workloads.build("interval_ftc", 1,
                                                  user=tracer.user)}
    op3 = ops["hk_integrate sqsin [0.0, 1.0] eps=0.001"]
    res, c = traced_call(tracer, op3)
    check(c["gauge.points"] == 41529,
          f"eps=1e-3 gauge points {c['gauge.points']} == 41529")
    check(c["gauge.distinct"] == 5202,
          f"eps=1e-3 distinct gauge points {c['gauge.distinct']} == 5202")
    check(res.certificate.sizes == (5191, 5191),
          f"eps=1e-3 pairs per seed {res.certificate.sizes} == (5191, 5191)")
    shared = c["certify.shared_sum"] / c["certify.shared_n"]
    check(shared == 1.0, f"eps=1e-3 shared_mesh_ratio {shared} == 1.0")
    op4 = ops["hk_integrate sqsin [0.0, 1.0] eps=0.0001"]
    t0 = time.perf_counter()
    res = op4.call()
    elapsed = time.perf_counter() - t0
    check(res.certificate.sizes == (47624, 47624),
          f"eps=1e-4 pairs per seed {res.certificate.sizes} == (47624, 47624)")
    print(f"     the 10 s gate's op (eps=1e-4, traced wrappers off) took "
          f"{elapsed:.2f} s")


if __name__ == "__main__":
    test_op_lists()
    test_bit_identical()
    test_cousin_intervals_match_sizes()
    test_metric_names()
    test_baseline_counts()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    sys.exit(1 if FAILURES else 0)
