"""Command-line front end: certified integrals, boundary-pairing checks,
Saks-Henstock audits, family construction stats, and the example gallery.

Every table is CSV with floats rendered by repr, so identical invocations
produce byte-identical files.  Figures are plain static SVG polylines.
Exit codes: 0 success, 1 usage problem, 2 the construction or the two-seed
certification failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (CauchyFail, ContinuityBudgetFail, DepthExceeded,
                     GaugeIntError, SearchFail, TailBudgetFail)
from .hk_core import (_SEED_ORDERS, PrimitiveControl, _shared_seeds,
                      _tau_list, hk_integrate, howard_cousin_family,
                      ftc_schedule, saks_henstock_audit, uniform_schedule,
                      proportional_schedule)
from .interval_charges import full_family_integrate
from .hkp_integral import (ftc_verify, hkp_integrate,
                           uniform_current_schedule)
from .currents1d import (Current1D, Curve, load_current, mass_charge,
                         pieces_at, save_current, theta_charge)
from . import gallery


# ---------------------------------------------------------------------------
# deterministic table and figure writers

def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(path: Path, header, rows, preamble: str = "") -> None:
    lines = []
    if preamble:
        lines.append(preamble)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_svg(path: Path, T: Current1D, *, width: int = 640) -> None:
    """Static figure of the chain: one polyline per component."""
    pts = np.concatenate([c.vertices for c, _m in T.components])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * float(span.max())
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    scale = width / span[0]
    height = max(1, int(round(span[1] * scale)))

    def xy(v):
        # SVG y axis points down
        x = (v[:, 0] - lo[0]) * scale
        y = height - (v[:, 1] - lo[1]) * scale
        return " ".join(f"{a:.4f},{b:.4f}" for a, b in zip(x, y))

    stroke = max(0.5, 0.002 * width)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for curve, _m in T.components:
        parts.append(f'<polyline points="{xy(curve.vertices)}" fill="none" '
                     f'stroke="black" stroke-width="{stroke}"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# built-in integrands

def _fn_x(x):
    return np.asarray(x, dtype=float)


def _fn_x2(x):
    xs = np.asarray(x, dtype=float)
    return xs * xs


def _prim_x(x):
    return 0.5 * float(x) * float(x)


def _prim_x2(x):
    return float(x) ** 3 / 3.0


def _prim_zero(x):
    return 0.0


def _interval_entry(name: str) -> dict:
    """f, its primitive, and the default eps -> schedule builder."""
    if name == "x":
        return {"f": _fn_x, "primitive": _prim_x, "schedule": None}
    if name == "x2":
        return {"f": _fn_x2, "primitive": _prim_x2, "schedule": None}
    if name == "sqsin":
        pair = gallery.square_sine_pair()
        return {"f": pair["Fprime"], "primitive": pair["F"],
                "schedule": "ftc", "pair": pair}
    if name == "dirichlet":
        d = gallery.dirichlet()
        return {"f": d["fn"], "primitive": _prim_zero,
                "schedule": d["schedule"], "host": (0.0, 1.0)}
    raise _Usage(f"unknown interval integrand {name!r}; "
                 "choose from x, x2, sqsin, dirichlet")


def _u_x1(p):
    return np.asarray(p, dtype=float)[..., 0]


def _u_x2(p):
    return np.asarray(p, dtype=float)[..., 1]


def _u_one(p):
    return np.ones(np.shape(p)[:-1])


def _u_norm(p):
    P = np.asarray(p, dtype=float)
    return np.hypot(P[..., 0], P[..., 1])


def _u_x1x2(p):
    P = np.asarray(p, dtype=float)
    return P[..., 0] * P[..., 1]


def _du_x1x2(p):
    P = np.asarray(p, dtype=float)
    out = np.zeros_like(P)
    out[..., 0], out[..., 1] = P[..., 1], P[..., 0]
    return out


def _u_curved(p):
    P = np.asarray(p, dtype=float)
    return P[..., 0] * P[..., 0] + P[..., 1]


def _du_curved(p):
    P = np.asarray(p, dtype=float)
    out = np.zeros_like(P)
    out[..., 0], out[..., 1] = 2.0 * P[..., 0], 1.0
    return out


def _du_x1(p):
    out = np.zeros(np.shape(p))
    out[..., 0] = 1.0
    return out


def _du_x2(p):
    out = np.zeros(np.shape(p))
    out[..., 1] = 1.0
    return out


AMBIENT_FNS = {"x1": _u_x1, "x2": _u_x2, "one": _u_one, "norm": _u_norm}

# test functions for the boundary pairing, with gradients where analytic
FTC_US = {
    "x1": (_u_x1, _du_x1),
    "x2": (_u_x2, _du_x2),
    "x1x2": (_u_x1x2, _du_x1x2),
    "curved": (_u_curved, _du_curved),
}


# ---------------------------------------------------------------------------
# argument plumbing

class _Usage(Exception):
    """Bad invocation detected after argparse; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, the spec reserves 2 for failed runs
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_DEFAULTS = {"eps": "1e-3", "tau": "", "schedule": "auto",
             "seed": "0", "out_dir": ".", "format": "csv"}


def _read_config(path: str) -> dict:
    opts = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _Usage(f"cannot read config {path!r}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _Usage(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise _Usage(f"{path}:{lineno}: unknown key {key!r}")
        opts[key] = val
    return opts


def _merge_options(args) -> None:
    """Fill unset common flags from the config file, then from defaults."""
    conf = _read_config(args.config) if args.config else {}
    for key, fallback in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, conf.get(key, fallback))
    args.eps_list = _floats(args.eps, "eps")
    args.tau_val = _floats(args.tau, "tau", one=True)[0] if args.tau else None
    try:
        args.seed = int(args.seed)
    except ValueError:
        raise _Usage(f"seed must be an integer, got {args.seed!r}")
    if args.format not in ("csv", "svg"):
        raise _Usage(f"unknown format {args.format!r}")
    args.out = Path(args.out_dir)
    args.out.mkdir(parents=True, exist_ok=True)


def _floats(text: str, what: str, one: bool = False) -> list:
    """The comma list of finite values > 0 in text; a single value when
    ``one``.  _Usage on anything else."""
    try:
        vals = [float(s) for s in str(text).split(",") if s.strip()]
    except ValueError:
        raise _Usage(f"cannot parse {what} list {text!r}")
    if not vals or not all(math.isfinite(v) and v > 0.0 for v in vals):
        raise _Usage(f"{what} values must be finite and positive, "
                     f"got {text!r}")
    if one and len(vals) > 1:
        raise _Usage(f"{what} takes one value, got {text!r}")
    return vals


def _interval_schedule(spec: str, a: float, b: float, entry: dict):
    if entry["schedule"] == "ftc" and spec == "auto":
        pair = entry["pair"]
        return ftc_schedule(pair["F"], pair["Fprime"],
                            list(pair["exceptional"]), (a, b))
    if entry["schedule"] not in (None, "ftc") and spec == "auto":
        return entry["schedule"]
    if spec == "auto":
        # mesh shrinking with eps keeps the two-seed gap under eps for
        # Lipschitz integrands with constant about 1
        return uniform_schedule(a, b, lambda e: e)
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        return uniform_schedule(a, b, _floats(rest, "schedule width")[0])
    if kind == "proportional":
        # ANCHOR:RATE, or the older ANCHOR,RATE
        try:
            anchor, rate = (float(v) for v in rest.replace(",", ":").split(":"))
        except ValueError:
            raise _Usage(f"proportional schedule wants ANCHOR:RATE, got {rest!r}")
        if not (math.isfinite(anchor) and math.isfinite(rate) and rate > 0.0):
            raise _Usage("proportional schedule wants a finite anchor and a "
                         f"finite rate > 0, got {rest!r}")
        return proportional_schedule(a, b, anchor, rate,
                                     control=PrimitiveControl(entry["primitive"]))
    raise _Usage(f"unknown schedule {spec!r}")


def _interval_setup(args) -> tuple:
    """(a, b, integrand entry, schedule) of an interval subcommand."""
    a, b = args.interval
    if a >= b:
        raise _Usage(f"empty interval [{a!r}, {b!r}]")
    entry = _interval_entry(args.fn)
    if "host" in entry and (a, b) != entry["host"]:
        raise _Usage(f"{args.fn} is defined on [0, 1]")
    return a, b, entry, _interval_schedule(args.schedule, a, b, entry)


def _load_chain(path: str) -> Current1D:
    try:
        return load_current(path)
    except OSError as exc:
        raise _Usage(f"cannot read current {path!r}: {exc}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_integrate(args) -> int:
    eps = args.eps_list[-1]
    if args.current:
        T = _load_chain(args.current)
        if args.fn not in AMBIENT_FNS:
            raise _Usage(f"unknown ambient integrand {args.fn!r}; "
                         f"choose from {', '.join(sorted(AMBIENT_FNS))}")
        f = AMBIENT_FNS[args.fn]
        if args.schedule == "auto":
            m = T.mass()
            sched = uniform_current_schedule(lambda e, m=m: e / (1.0 + m))
        elif args.schedule.startswith("uniform:"):
            sched = uniform_current_schedule(
                _floats(args.schedule.partition(":")[2], "schedule width")[0])
        else:
            raise _Usage(f"unknown chain schedule {args.schedule!r}")
        tau = [args.tau_val] if args.tau_val else None
        res = hkp_integrate(f, T, mass_charge(), sched, eps, tau_schedule=tau)
        domain = args.current
    else:
        a, b, entry, sched = _interval_setup(args)
        if args.tau_val is not None:
            control = PrimitiveControl(entry["primitive"])
            res = full_family_integrate(entry["f"], control, sched, eps,
                                        tau_schedule=args.tau_val,
                                        max_nodes=8_000_000)
        else:
            res = hk_integrate(entry["f"], sched, eps, max_nodes=8_000_000)
        domain = f"[{a!r},{b!r}]"
    cert = res.certificate
    _write_csv(args.out / "integrate.csv",
               ("fn", "domain", "eps", "value", "gap", "sum1", "sum2",
                "size1", "size2"),
               [(args.fn, domain, eps, res.value, res.epsilon,
                 cert.sum1, cert.sum2, cert.sizes[0], cert.sizes[1])])
    print(f"value={res.value!r} gap={res.epsilon:.3e} "
          f"-> {args.out / 'integrate.csv'}")
    return 0


def _segment_case():
    T = Current1D([(Curve(np.array([[0.0, 0.0], [3.0, 4.0]])), 1)])
    return T, "x1", {}


def _ftc_case(args):
    if args.current:
        T = _load_chain(args.current)
        return T, args.u or "x1", {}
    case = args.case
    if case == "segment":
        return _segment_case()
    if case == "circle":
        return gallery.unit_circle(16), args.u or "curved", {}
    if case == "square":
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                       [0.0, 1.0], [0.0, 0.0]])
        return Current1D([(Curve(sq), 1)]), args.u or "x1x2", {}
    if case == "twocurves":
        tc = gallery.two_curves()
        pair = gallery.square_sine_pair()
        F, Fp = pair["F"], pair["Fprime"]

        def u(p, F=F):
            return F(np.asarray(p, dtype=float)[..., 0])

        def Du(p, Fp=Fp):
            P = np.asarray(p, dtype=float)
            out = np.zeros_like(P)
            out[..., 0] = Fp(P[..., 0])
            return out

        T = tc["gamma_plus"]
        start = T.components[0][0].vertices[0]
        extras = {"Du": Du, "exceptional": [start], "corner_mode": "smooth"}
        return T, (u, None), extras
    raise _Usage(f"unknown ftc case {case!r}; "
                 "choose segment, circle, square or twocurves")


def _cmd_ftc(args) -> int:
    T, u_spec, extras = _ftc_case(args)
    if isinstance(u_spec, str):
        if u_spec not in FTC_US:
            raise _Usage(f"unknown test function {u_spec!r}; "
                         f"choose from {', '.join(sorted(FTC_US))}")
        u, Du = FTC_US[u_spec]
        if Du is not None:
            extras = dict(extras, Du=Du)
    else:
        u, _ = u_spec
    rep = ftc_verify(u, T, args.eps_list, **extras)
    path = args.out / "ftc.csv"
    path.write_text(rep.to_csv(), newline="\n")
    if args.format == "svg":
        _write_svg(args.out / "ftc.svg", T)
    print(f"lhs={rep.lhs!r} max_discrepancy={rep.max_discrepancy():.3e} "
          f"-> {path}")
    return 0


def _cmd_audit(args) -> int:
    _a, _b, entry, sched = _interval_setup(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for eps in args.eps_list:
        res = hk_integrate(entry["f"], sched, eps, keep_families=True,
                           max_nodes=8_000_000)
        audits = [saks_henstock_audit(entry["f"], entry["primitive"],
                                      fc.partition)
                  for fc in res.certificate.families]
        # the bound also holds on arbitrary subfamilies; probe a few
        part = res.certificate.families[0].partition
        sub_worst = 0.0
        for _ in range(args.samples):
            keep = rng.random(part.n) < 0.5
            fam = type(part)(part.host, part.lefts[keep], part.rights[keep],
                             part.tags[keep], validate=False)
            sub_worst = max(sub_worst, saks_henstock_audit(
                entry["f"], entry["primitive"], fam))
        rows.append((eps, res.value, res.epsilon, audits[0], audits[1],
                     sub_worst, 2.0 * eps))
    _write_csv(args.out / "audit.csv",
               ("eps", "value", "gap", "audit_left", "audit_right",
                "audit_subfamilies", "bound"),
               rows)
    worst = max(max(r[3], r[4], r[5]) / r[6] for r in rows)
    print(f"worst audit at {worst:.3f} of the 2*eps bound "
          f"-> {args.out / 'audit.csv'}")
    return 0


def _cmd_partition(args) -> int:
    a, b, _entry, sched = _interval_setup(args)
    eps = args.eps_list[-1]
    tau = _tau_list(args.tau_val, eps)[0]
    gauge = sched.gauge(eps)
    rows = []
    # one seed store: the right seed reuses the left seed's bisection
    with _shared_seeds():
        for seed, (tag_order, zero_order) in _SEED_ORDERS.items():
            fc = howard_cousin_family((a, b), gauge, sched.control, tau,
                                      tag_order=tag_order, zero_order=zero_order,
                                      max_nodes=8_000_000)
            part = fc.partition
            widths = part.rights - part.lefts
            rows.append((seed, part.n, fc.carves.n, float(widths.min()),
                         float(widths.max()), fc.remainder_value))
    _write_csv(args.out / "partition.csv",
               ("seed", "intervals", "carves", "min_width", "max_width",
                "remainder"),
               rows)
    print(f"left/right sizes {rows[0][1]}/{rows[1][1]} "
          f"-> {args.out / 'partition.csv'}")
    return 0


def _gallery_circles(args) -> list:
    J = args.J
    cs = gallery.circles_current(J=J)
    theta = theta_charge(cs["f"])
    rows = [(j + 1, S.mass(), theta(S)) for j, S in enumerate(cs["S"])]
    _write_csv(args.out / "circles.csv", ("j", "mass_Sj", "theta_f_Sj"), rows)
    save_current(cs["T"], args.out / "circles.cur")
    if args.format == "svg":
        _write_svg(args.out / "circles.svg", cs["T"])
    return [f"J={J}", f"theta_f across rings: "
            f"{sorted({r[2] for r in rows})}"]


def _gallery_cantor(args) -> list:
    gal = gallery.cantor_squares(k_max=args.k)
    T = gal["T"]
    atoms = len(T.boundary())
    rows = [(k, float(a), float(b), gal["heights"][k - 1])
            for (k, a, b) in gal["removed"]]
    _write_csv(args.out / "cantor.csv", ("level", "left", "right", "height"),
               rows,
               preamble=f"# boundary_atoms={atoms},"
                        f"remaining_length={gal['remaining_length']!r}")
    save_current(T, args.out / "cantor.cur")
    if args.format == "svg":
        _write_svg(args.out / "cantor.svg", T)
    return [f"k={args.k}", f"boundary atoms: {atoms}",
            f"remaining length: {gal['remaining_length']!r}"]


def _gallery_zigzag(args) -> list:
    gal = gallery.zigzag_staircase(j_max=args.j)
    T = gal["T"]
    F = theta_charge(gal["h"])
    x = np.array([0.0, 0.0])
    deltas = [2.0 ** -k for k in range(2, args.j)]
    rows = []
    lower, upper = -np.inf, np.inf
    for d in deltas:
        pieces = pieces_at(T, x, d)
        if not pieces:
            continue
        ratios = [F(S) / S.mass() for S in pieces]
        lower = max(lower, min(ratios))
        upper = min(upper, max(ratios))
        rows.append((d, len(pieces), min(ratios), max(ratios), lower, upper))
    _write_csv(args.out / "zigzag.csv",
               ("delta", "pieces", "ratio_min", "ratio_max",
                "lower_envelope", "upper_envelope"),
               rows)
    save_current(T, args.out / "zigzag.cur")
    if args.format == "svg":
        _write_svg(args.out / "zigzag.svg", T)
    return [f"j_max={args.j}",
            f"upper envelope at delta={rows[-1][0]!r}: {rows[-1][5]!r}"]


def _gallery_twocurves(args) -> list:
    tc = gallery.two_curves()
    rows = [("gamma", tc["gamma"].mass()),
            ("gamma_plus", tc["gamma_plus"].mass()),
            ("gamma_minus", tc["gamma_minus"].mass()),
            ("t_first", tc["t_first"]),
            ("t_last", tc["t_last"]),
            ("mass_deficit", tc["mass_deficit"])]
    _write_csv(args.out / "twocurves.csv", ("quantity", "value"), rows)
    save_current(tc["gamma"], args.out / "twocurves.cur")
    save_current(tc["gamma_plus"], args.out / "twocurves_plus.cur")
    if args.format == "svg":
        both = Current1D([(tc["gamma_plus"].components[0][0], 1),
                          (tc["gamma_minus"].components[0][0], 1)])
        _write_svg(args.out / "twocurves.svg", both)
    return [f"feet: {len(tc['feet'])}",
            f"mass deficit: {tc['mass_deficit']!r}"]


def _cmd_gallery(args) -> int:
    runners = {"circles": _gallery_circles, "cantor": _gallery_cantor,
               "zigzag": _gallery_zigzag, "twocurves": _gallery_twocurves}
    if args.name not in runners:
        raise _Usage(f"unknown gallery name {args.name!r}; "
                     f"choose from {', '.join(sorted(runners))}")
    notes = runners[args.name](args)
    print(f"{args.name}: " + "; ".join(notes) + f" -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", help="target accuracy, or a comma list for "
                                 "scheduled runs (default 1e-3)")
    p.add_argument("--tau", help="charge budget override for the uncovered "
                                 "remainder (default eps/4)")
    p.add_argument("--schedule", help="gauge schedule: auto, uniform:H or "
                                      "proportional:ANCHOR:RATE")
    p.add_argument("--seed", help="seed for sampled probes (default 0)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--format", help="csv (tables only) or svg (add figures)")
    p.add_argument("--config", help="key = value file backing unset flags")


def build_parser() -> _Parser:
    top = _Parser(prog="gaugeint",
                  description="Certified gauge integration on intervals "
                              "and one-dimensional chains.")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("integrate", help="certified integral of a built-in "
                                         "integrand or an ambient function "
                                         "over a chain file")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[0.0, 1.0])
    p.add_argument("--current", help="chain interchange file")
    p.add_argument("--fn", default="x",
                   help="interval: x, x2, sqsin, dirichlet; "
                        "chain: x1, x2, one, norm")
    _add_common(p)
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("ftc", help="boundary pairing against the certified "
                                   "integral of the tangential derivative")
    p.add_argument("case", nargs="?", default="segment",
                   help="segment, circle, square or twocurves")
    p.add_argument("--current", help="chain interchange file instead of a "
                                     "built-in case")
    p.add_argument("--u", help="test function: " + ", ".join(sorted(FTC_US)))
    _add_common(p)
    p.set_defaults(run=_cmd_ftc, eps_default="1e-2,1e-3")

    p = sub.add_parser("gallery", help="reproduce a counterexample object "
                                       "with tables and figures")
    p.add_argument("name", help="circles, cantor, zigzag or twocurves")
    p.add_argument("--J", type=int, default=8, help="number of circles")
    p.add_argument("--k", type=int, default=6, help="removal depth")
    p.add_argument("--j", type=int, default=10, help="staircase steps")
    _add_common(p)
    p.set_defaults(run=_cmd_gallery, format_default="svg")

    p = sub.add_parser("audit", help="Saks-Henstock audit of constructed "
                                     "partitions and sampled subfamilies")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[0.0, 1.0])
    p.add_argument("--fn", default="sqsin")
    p.add_argument("--samples", type=int, default=16,
                   help="random subfamilies per eps")
    _add_common(p)
    p.set_defaults(run=_cmd_audit, eps_default="1e-2,1e-3")

    p = sub.add_parser("partition", help="family construction statistics "
                                         "for both seeds")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=[0.0, 1.0])
    p.add_argument("--fn", default="sqsin")
    _add_common(p)
    p.set_defaults(run=_cmd_partition)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.eps is None and getattr(args, "eps_default", None):
            args.eps = args.eps_default
        if args.format is None and getattr(args, "format_default", None):
            args.format = args.format_default
        _merge_options(args)
        return args.run(args)
    except _Usage as exc:
        print(f"gaugeint: error: {exc}", file=sys.stderr)
        return 1
    except CauchyFail as exc:
        print(f"gaugeint: certification failed: {exc}", file=sys.stderr)
        if exc.partial_sums:
            rows = [(t, s) for t, s in exc.partial_sums]
            _write_csv(args.out / "partial_sums.csv", ("tau", "sum"), rows)
            print(f"partial sums -> {args.out / 'partial_sums.csv'}",
                  file=sys.stderr)
        return 2
    except (ContinuityBudgetFail, DepthExceeded, SearchFail,
            TailBudgetFail) as exc:
        print(f"gaugeint: construction failed: {exc}", file=sys.stderr)
        return 2
    except GaugeIntError as exc:
        print(f"gaugeint: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
