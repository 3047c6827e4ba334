"""Span tracing of gaugeint's layers, installed from outside the package.

`install` rebinds public functions and methods of the package's modules to
thin wrappers; `uninstall` puts the originals back.  Nothing inside `src/`
changes.  A function that other modules import by name (`compensated_sum`,
`howard_cousin_family`, ...) is rebound in every gaugeint module that holds
it, so calls through any of those names are seen.

Each wrapped call records one span: name, start, end, parent span and op
id.  Spans live in flat arrays in memory and are written out by `dump`
when the run ends.  A span's self time is its duration minus the duration
of its direct children.  Counters (points, intervals, terms, rows) are
taken at the same boundaries and kept per op.

A layer is one module's share of the work; several wrapped functions can
feed one layer (`Curve.point_at` and `Curve.point_at_many` both feed
`currents1d.arc_chart`).  A call counts toward a layer's `calls` and
`busy_s` only when no call of the same layer is already open, so a
`point_at` that delegates to `point_at_many` counts once.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

perf = time.perf_counter

# Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER = (
    ("hk_core.gauge.calls", "count"),
    ("hk_core.gauge.points", "count"),
    ("hk_core.gauge.distinct_ratio", "1"),
    ("hk_core.gauge.self_s", "s"),
    ("hk_core.cousin.calls", "count"),
    ("hk_core.cousin.intervals", "count"),
    ("hk_core.cousin.self_s", "s"),
    ("hk_core.carve.control_evals", "count"),
    ("hk_core.carve.self_s", "s"),
    ("hk_core.riemann.terms", "count"),
    ("hk_core.riemann.self_s", "s"),
    ("sums.compensated.terms", "count"),
    ("sums.compensated.busy_s", "s"),
    ("hk_core.certify.pairs", "count"),
    ("hk_core.certify.self_s", "s"),
    ("hk_core.certify.gap_over_eps", "1"),
    ("hk_core.certify.shared_mesh_ratio", "1"),
    ("interval_charges.certify.self_s", "s"),
    ("currents1d.arc_chart.calls", "count"),
    ("currents1d.arc_chart.points_per_call", "1"),
    ("currents1d.arc_chart.busy_s", "s"),
    ("currents1d.piece_family.build_s", "s"),
    ("currents1d.hc_current.rows", "count"),
    ("currents1d.hc_current.self_s", "s"),
    ("currents1d.charge.calls", "count"),
    ("currents1d.charge.busy_s", "s"),
    ("hkp_integral.certify.families", "count"),
    ("hkp_integral.certify.self_s", "s"),
    ("hkp_integral.riemann.self_s", "s"),
    ("hkp_integral.ftc.self_s", "s"),
    ("hk_core.audit.calls", "count"),
    ("hk_core.audit.self_s", "s"),
    ("currents1d.piece.self_s", "s"),
    ("sums.exact.terms", "count"),
    ("sums.exact.busy_s", "s"),
    ("user.evals", "count"),
    ("user.busy_s", "s"),
    ("trace.overhead_ratio", "1"),
)

# Layers whose self time belongs to the program (not the benchmark's own
# integrands, and not the op glue); used to name each pass's heaviest layer.
PROGRAM_LAYERS = (
    "hk_core.gauge", "hk_core.cousin", "hk_core.carve", "hk_core.riemann",
    "hk_core.certify", "hk_core.audit", "sums.compensated", "sums.exact",
    "interval_charges.certify", "currents1d.arc_chart",
    "currents1d.piece_family", "currents1d.hc_current", "currents1d.charge",
    "currents1d.piece", "hkp_integral.certify", "hkp_integral.riemann",
    "hkp_integral.ftc",
)


def _n(x) -> int:
    return int(np.size(x))


class Tracer:
    """Span and counter store for one run; inactive until `active` is set."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.span_names: list = []     # span name per name id
        self.span_layer: list = []     # layer id per name id
        self.layers: list = []         # layer name per layer id
        self._name_ids: dict = {}
        self._layer_ids: dict = {}
        self.depth: list = []          # open spans per layer id
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list = []
        self.counts: dict = {}
        self.gauge_xs: dict = {}
        self.hk_capture = None
        self.hk_meshes: list = []

    # -- registration -----------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.depth.append(0)
        return self._layer_ids[layer]

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layer.append(self._layer_id(layer))
        return self._name_ids[name]

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, layer: str, after=None):
        """Span-recording wrapper of fn; `after(args, kwargs, out, outer)`
        runs once the span is closed, with outer true when no call of the
        same layer was open."""
        nid = self._name_id(name, layer)
        lid = self.span_layer[nid]
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            i = len(tr.end)
            outer = tr.depth[lid] == 0
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            stack.append(i)
            tr.depth[lid] += 1
            tr.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[i] = perf()
                stack.pop()
                tr.depth[lid] -= 1
            if after is not None:
                after(args, kwargs, out, outer)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def user(self, fn):
        """Wrap one of the benchmark's own callables (integrand, primitive,
        gauge or charge function) as a `user` span."""
        if fn is None:
            return None
        return self.wrap(fn, "user." + getattr(fn, "__name__", "fn"), "user",
                         lambda a, k, out, outer: self.count("user.evals"))

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts = {}
        self.gauge_xs = {}
        self.hk_meshes = []

    def end_op(self) -> dict:
        """Counters of the op just run; derived counts are computed here,
        outside the op's timed region."""
        c = dict(self.counts)
        distinct = 0
        for arrays, scalars in self.gauge_xs.values():
            xs = np.concatenate(arrays + [np.array(scalars, dtype=float)])
            distinct += int(np.unique(xs).size)
        c["gauge.distinct"] = distinct
        shares = []
        for fams in self.hk_meshes:
            if len(fams) != 2:
                continue
            e1, e2 = (np.unique(np.concatenate([fc.partition.lefts,
                                                fc.partition.rights]))
                      for fc in fams)
            union = np.union1d(e1, e2).size
            shares.append(np.intersect1d(e1, e2).size / union if union else 1.0)
        if shares:
            c["certify.shared_sum"] = float(sum(shares))
            c["certify.shared_n"] = len(shares)
        self.gauge_xs = {}
        self.hk_meshes = []
        return c

    # -- span tables -------------------------------------------------------

    def mark(self) -> int:
        return len(self.end)

    def layer_times(self, lo: int, hi: int) -> dict:
        """Per-layer self time, outer busy time and outer call count over
        spans lo..hi-1 (one traced pass)."""
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = end - start
        layer_of = np.asarray(self.span_layer, dtype=np.int64)
        lay = layer_of[name]
        has_parent = parent >= lo
        child = np.zeros(hi - lo)
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        self_t = dur - child
        parent_lay = np.full(hi - lo, -1, dtype=np.int64)
        parent_lay[has_parent] = lay[parent[has_parent] - lo]
        outer = parent_lay != lay
        out = {}
        for lid, layer in enumerate(self.layers):
            sel = lay == lid
            out[layer] = {
                "self_s": float(self_t[sel].sum()),
                "busy_s": float(dur[sel & outer].sum()),
                "calls": int((sel & outer).sum()),
            }
        return out

    def dump(self, path) -> None:
        """Write every span recorded in this run to an .npz file."""
        np.savez(path,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 names=np.array(self.span_names),
                 layer_of_name=np.asarray(self.span_layer, dtype=np.int64),
                 layers=np.array(self.layers))


# ---------------------------------------------------------------------------
# the wrapped surface of the package


def _bindings(obj):
    """Every (module, attribute) in the package bound to obj."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gaugeint"
                               or modname.startswith("gaugeint.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                out.append((mod, attr))
    return out


class Installation:
    """The set of wrappers installed by `install`; `uninstall` undoes it."""

    def __init__(self):
        self.saved: list = []

    def set(self, owner, attr, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved = []


def install(tr: Tracer, gaugeint) -> Installation:
    """Wrap the layers' public functions and methods; see module docstring."""
    hk = gaugeint.hk_core
    ic = gaugeint.interval_charges
    cur = gaugeint.currents1d
    hkp = gaugeint.hkp_integral
    sums = gaugeint.sums
    inst = Installation()

    def fn(module, attr, layer, after=None):
        orig = getattr(module, attr)
        w = tr.wrap(orig, f"{module.__name__.split('.')[-1]}.{attr}", layer,
                    after)
        for mod, a in _bindings(orig):
            inst.set(mod, a, w)

    def method(cls, attr, layer, after=None):
        orig = cls.__dict__[attr]
        inst.set(cls, attr,
                 tr.wrap(orig, f"{cls.__name__}.{attr}", layer, after))

    # hk_core.gauge: every gauge evaluation, with the points it saw.
    def gauge_key(g):
        return (g.name, g.a, g.b)

    def after_eval_many(a, k, out, outer):
        g, xs = a[0], np.asarray(a[1], dtype=float)
        tr.count("gauge.points", xs.size)
        tr.gauge_xs.setdefault(gauge_key(g), ([], []))[0].append(
            xs.ravel().copy())

    def after_call(a, k, out, outer):
        tr.count("gauge.points")
        tr.gauge_xs.setdefault(gauge_key(a[0]), ([], []))[1].append(
            float(a[1]))

    method(hk.Gauge, "eval_many", "hk_core.gauge", after_eval_many)
    method(hk.Gauge, "__call__", "hk_core.gauge", after_call)

    fn(hk, "cousin_partition", "hk_core.cousin",
       lambda a, k, out, outer: tr.count("cousin.intervals", out.n))

    # hk_core.carve: the Howard-Cousin build minus its Cousin children, plus
    # every evaluation of a control charge it asks for.
    def after_hcf(a, k, out, outer):
        tr.count("carve.pairs", out.carves.n)
        if tr.hk_capture is not None:
            tr.hk_capture.append(out)

    fn(hk, "howard_cousin_family", "hk_core.carve", after_hcf)

    def control_counter(cls, attr, size):
        orig = cls.__dict__[attr]

        def counted(*args, **kwargs):
            if tr.active:
                tr.count("carve.control_evals", size(args))
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        inst.set(cls, attr, counted)

    for cls in (hk.PrimitiveControl, ic.IntervalCharge, cur._RowControl):
        control_counter(cls, "eval_one", lambda a: 1)
        if "eval_many" in cls.__dict__:
            control_counter(cls, "eval_many", lambda a: _n(a[1]))
    for cls in (ic.IntervalCharge, cur._RowControl):
        control_counter(cls, "union_value", lambda a: len(a[1]))

    fn(hk, "riemann_sum", "hk_core.riemann",
       lambda a, k, out, outer: tr.count("riemann.terms", a[1].n))

    # hk_core.certify: the two-seed certification on intervals.
    orig_hk = hk.hk_integrate

    def hk_integrate(*args, **kwargs):
        if not tr.active:
            return orig_hk(*args, **kwargs)
        saved, tr.hk_capture = tr.hk_capture, []
        try:
            res = orig_hk(*args, **kwargs)
        finally:
            captured, tr.hk_capture = tr.hk_capture, saved
        eps = args[2] if len(args) > 2 else kwargs["eps"]
        tr.count("certify.pairs", sum(res.certificate.sizes))
        tr.count("certify.gap_over_eps_sum", res.epsilon / eps)
        tr.count("certify.ops")
        tr.hk_meshes.append(captured)
        return res

    hk_integrate.__wrapped__ = orig_hk
    w = tr.wrap(hk_integrate, "hk_core.hk_integrate", "hk_core.certify")
    for mod, a in _bindings(orig_hk):
        inst.set(mod, a, w)

    fn(ic, "full_family_integrate", "interval_charges.certify")
    fn(hk, "saks_henstock_audit", "hk_core.audit")
    fn(hk, "ac_star_probe", "hk_core.audit")

    def after_terms(key):
        return lambda a, k, out, outer: tr.count(key, len(a[0]))

    # Generators are materialized before the span opens, so the span times
    # the reduction alone and the count is exact; the order is unchanged.
    for attr, layer, key in (("compensated_sum", "sums.compensated",
                              "compensated.terms"),
                             ("exact_sum", "sums.exact", "exact.terms")):
        orig = getattr(sums, attr)
        inner = tr.wrap(orig, f"sums.{attr}", layer, after_terms(key))

        def materialized(terms, _inner=inner):
            if tr.active and not hasattr(terms, "__len__"):
                terms = list(terms)
            return _inner(terms)

        materialized.__wrapped__ = orig
        for mod, a in _bindings(orig):
            inst.set(mod, a, materialized)

    # currents1d
    def after_point_at(a, k, out, outer):
        if outer:
            tr.count("arc_chart.points")

    def after_point_at_many(a, k, out, outer):
        if outer:
            tr.count("arc_chart.points", _n(a[1]))

    method(cur.Curve, "point_at", "currents1d.arc_chart", after_point_at)
    method(cur.Curve, "point_at_many", "currents1d.arc_chart",
           after_point_at_many)
    method(cur.PieceFamily, "__init__", "currents1d.piece_family")
    method(cur.PieceCharge, "__call__", "currents1d.charge")
    method(cur.PieceCharge, "on_family", "currents1d.charge")

    for attr in ("restrict", "is_piece", "theta_u", "lambda_omega",
                 "pieces_at", "derivate"):
        fn(cur, attr, "currents1d.piece")
    for attr in ("complement", "boundary"):
        method(cur.Piece, attr, "currents1d.piece")

    # hkp_integral, and the chain families its certification builds
    fn(hkp, "hkp_integrate", "hkp_integral.certify")
    fn(hkp, "hkp_riemann_sum", "hkp_integral.riemann")
    fn(hkp, "ftc_verify", "hkp_integral.ftc")
    hkp_certify = tr._layer_ids["hkp_integral.certify"]

    def after_hcc(a, k, out, outer):
        tr.count("hc_current.rows", out.n)
        if tr.depth[hkp_certify]:
            tr.count("hkp.families")

    fn(cur, "howard_cousin_current", "currents1d.hc_current", after_hcc)
    return inst


def pass_metrics(tr: Tracer, lo: int, hi: int, op_counts: list) -> dict:
    """Per-layer metric values of one traced pass (spans lo..hi-1, the
    counters of its ops)."""
    t = tr.layer_times(lo, hi)
    c: dict = {}
    for oc in op_counts:
        for key, v in oc.items():
            c[key] = c.get(key, 0) + v

    def lt(layer, field):
        return t.get(layer, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "hk_core.gauge.calls": lt("hk_core.gauge", "calls"),
        "hk_core.gauge.points": c.get("gauge.points", 0),
        "hk_core.gauge.distinct_ratio": ratio(c.get("gauge.distinct", 0),
                                              c.get("gauge.points", 0)),
        "hk_core.gauge.self_s": lt("hk_core.gauge", "self_s"),
        "hk_core.cousin.calls": lt("hk_core.cousin", "calls"),
        "hk_core.cousin.intervals": c.get("cousin.intervals", 0),
        "hk_core.cousin.self_s": lt("hk_core.cousin", "self_s"),
        "hk_core.carve.control_evals": c.get("carve.control_evals", 0),
        "hk_core.carve.self_s": lt("hk_core.carve", "self_s"),
        "hk_core.riemann.terms": c.get("riemann.terms", 0),
        "hk_core.riemann.self_s": lt("hk_core.riemann", "self_s"),
        "sums.compensated.terms": c.get("compensated.terms", 0),
        "sums.compensated.busy_s": lt("sums.compensated", "busy_s"),
        "hk_core.certify.pairs": c.get("certify.pairs", 0),
        "hk_core.certify.self_s": lt("hk_core.certify", "self_s"),
        "hk_core.certify.gap_over_eps": ratio(
            c.get("certify.gap_over_eps_sum", 0.0), c.get("certify.ops", 0)),
        "hk_core.certify.shared_mesh_ratio": ratio(
            c.get("certify.shared_sum", 0.0), c.get("certify.shared_n", 0)),
        "interval_charges.certify.self_s": lt("interval_charges.certify",
                                              "self_s"),
        "currents1d.arc_chart.calls": lt("currents1d.arc_chart", "calls"),
        "currents1d.arc_chart.points_per_call": ratio(
            c.get("arc_chart.points", 0), lt("currents1d.arc_chart", "calls")),
        "currents1d.arc_chart.busy_s": lt("currents1d.arc_chart", "busy_s"),
        "currents1d.piece_family.build_s": lt("currents1d.piece_family",
                                              "busy_s"),
        "currents1d.hc_current.rows": c.get("hc_current.rows", 0),
        "currents1d.hc_current.self_s": lt("currents1d.hc_current", "self_s"),
        "currents1d.charge.calls": lt("currents1d.charge", "calls"),
        "currents1d.charge.busy_s": lt("currents1d.charge", "busy_s"),
        "hkp_integral.certify.families": c.get("hkp.families", 0),
        "hkp_integral.certify.self_s": lt("hkp_integral.certify", "self_s"),
        "hkp_integral.riemann.self_s": lt("hkp_integral.riemann", "self_s"),
        "hkp_integral.ftc.self_s": lt("hkp_integral.ftc", "self_s"),
        "hk_core.audit.calls": lt("hk_core.audit", "calls"),
        "hk_core.audit.self_s": lt("hk_core.audit", "self_s"),
        "currents1d.piece.self_s": lt("currents1d.piece", "self_s"),
        "sums.exact.terms": c.get("exact.terms", 0),
        "sums.exact.busy_s": lt("sums.exact", "busy_s"),
        "user.evals": c.get("user.evals", 0),
        "user.busy_s": lt("user", "busy_s"),
    }


def heaviest_layers(tr: Tracer, lo: int, hi: int) -> list:
    """Program layers of one pass sorted by self time, heaviest first."""
    t = tr.layer_times(lo, hi)
    rows = [(t[l]["self_s"], l) for l in PROGRAM_LAYERS if l in t]
    return sorted(rows, reverse=True)
