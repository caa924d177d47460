"""Thread quivers, their finite expansion windows, and homological checks."""

from .errors import *  # noqa: F401,F403
from .linalg import QQ, Matrix, PrimeField, RationalField, field_by_name
from .orders import (
    INT,
    NAT,
    NEG_NAT,
    Concat,
    Fin,
    FiniteChain,
    thread_order,
    truncate,
)
from .quiver import (
    Arrow,
    Path,
    Quiver,
    Relation,
    is_strongly_locally_finite,
)
from .windows import (
    ThreadArrow,
    ThreadQuiver,
    Window,
    expand,
    normalize,
    underlying_quiver,
    window_iso,
)
from .reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    Rep,
    RepMap,
    TripleRep,
    decompose,
    dualize,
    ext_dim,
    from_triple,
    hom_basis,
    hom_basis_generic,
    hom_dim,
    induce,
    map_factor,
    modification_hom_dim,
    proj_dim,
    resolution,
    restrict,
    std_module,
    to_triple,
    total_hom_dims,
)
from .serre import (
    VarietyMor,
    check_dualizing,
    check_serre,
    nakayama,
    pseudo,
)
from .threads import (
    adjunction_check,
    extract_threadquiver,
    gabriel_quiver,
    interval_adjoint,
    perp_adjoint,
    rad_irr_dims,
    supp_adjoint,
    thread_hom_check,
    thread_runs,
    thread_summary,
)
from .dsl import emit_dot, parse_tq, serialize_tq
from .report import Report, ReportItem
