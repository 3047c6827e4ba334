"""The traced benchmark run stays runnable.

A traced run wraps the package's public functions from outside it and
exits 1 before printing any metric when a wrapped name has gone or moved,
or when an op's captured constructions no longer match what the run reads.
One short traced pass over a workload catches both: the interval FTC
workload loads gauges, carves and audits, the mesh workload Cousin
bisection and summation on meshes up to 2^20 cells, and the chain workload
the wrapped chain names: the row controls' eval_one, eval_many and
union_value, theta_u, howard_cousin_current, PieceCharge.__call__ and
on_family, and hkp_integrate.  The probe workload's set-up builds the
square-sine FTC families whose audits its ops read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["interval_ftc", "interval_mesh", "chain_hkp",
                          "probes"])
def test_traced_run_exits_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_cousin_intervals_match_sizes_on_dirichlet_ops(monkeypatch):
    # each construction bisects all its segments in one cousin_partition
    # call on the list of them; the traced interval count still covers
    # every family interval: the certificate's sizes, less the carve pairs
    # where hk_integrate counts them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gaugeint
    import tracing
    import workloads

    tracer = tracing.Tracer()
    ops = [op for op in workloads.build("interval_mesh", 1, user=tracer.user)
           if op.kind == "hk_integrate" and "dirichlet" in op.label]
    assert len(ops) == 6
    ops += [op for op in workloads.build("interval_ftc", 1, user=tracer.user)
            if "sqsin" in op.label and "eps=0.01" in op.label]
    inst = tracing.install(tracer, gaugeint)
    try:
        tracer.active = True
        for op in ops:
            tracer.begin_op(0)
            res = op.call()
            c = tracer.end_op()
            assert c["carve.pairs"] > 0, op.label
            carved = c["carve.pairs"] if op.kind == "hk_integrate" else 0
            assert c["cousin.intervals"] == \
                sum(res.certificate.sizes) - carved, op.label
    finally:
        tracer.active = False
        inst.uninstall()
