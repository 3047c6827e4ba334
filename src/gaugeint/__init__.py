"""Gauge-based non-absolutely convergent integration.

Interval layer: gauges, Cousin partitions, Howard-Cousin families, certified
integrals with two-seed Cauchy certificates, Saks-Henstock audits, AC*
probes.  Current layer: one-dimensional integral currents, piece charges,
derivation, and the Pfeffer-style integral on chains.
"""

from .errors import (
    AuditFail,
    CauchyFail,
    ContinuityBudgetFail,
    DepthExceeded,
    ExceptionalTagEncountered,
    GaugeIntError,
    InvalidGauge,
    MonotonicityViolation,
    NoPieces,
    PointOffSupport,
    QuadratureUnstable,
    SearchFail,
    SpecOutOfRange,
    TailBudgetFail,
    TraitViolation,
    UndefinedAtAtom,
    UndefinedTag,
)
from .hk_core import (
    Certificate,
    FamilyConstruction,
    Gauge,
    HKResult,
    PrimitiveControl,
    Schedule,
    TaggedFamily1D,
    ac_star_probe,
    as_schedule,
    cousin_partition,
    ftc_gauge,
    ftc_schedule,
    hk_integrate,
    howard_cousin_family,
    pointwise_lip,
    proportional_schedule,
    riemann_sum,
    saks_henstock_audit,
    uniform_schedule,
)
from .interval_charges import (
    IntervalCharge,
    IntervalUnion,
    charge_from_primitive,
    continuity_probe,
    counting_charge,
    full_family_integrate,
    length_charge,
    positivize_gauge,
)
from .currents1d import (
    AmbientGauge,
    Curve,
    Current1D,
    Piece,
    PieceCharge,
    PieceFamily,
    ZeroCurrent,
    abs_charge,
    boundary,
    derivate,
    dumps_current,
    howard_cousin_current,
    is_piece,
    lambda_charge,
    lambda_f,
    lambda_f_charge,
    lambda_omega,
    load_current,
    loads_current,
    mass,
    mass_charge,
    mass_continuity_witness,
    pieces_at,
    restrict,
    restrict_halfplane,
    save_current,
    theta_charge,
    theta_u,
)
from .hkp_integral import (
    ArcFunction,
    FtcReport,
    arc_gauge_schedule,
    ftc_verify,
    hkp_integrate,
    hkp_riemann_sum,
    indefinite_integral,
    lebesgue_compare,
    monotone_convergence_harness,
    piece_as_current,
    saks_henstock_hkp_audit,
    uniform_current_schedule,
)
from .sums import compensated_sum, exact_sum
from . import gallery

__version__ = "0.1.0"
