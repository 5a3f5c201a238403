"""Cohomological bounds on minimal Euler characteristics for finite groups."""

from .characters import (
    CharMultiset,
    exterior_power,
    graded_character,
    mun_semidirect,
    symmetric_power,
    twisted_euler,
)
from .errors import (
    BudgetError,
    EulerCharError,
    MissingMetadataError,
    RealizeError,
    SpecError,
    TruncationError,
    UnsupportedFamilyError,
)
from .groupspec import (
    ConcreteGroup,
    Cyclic,
    ElementaryAbelian,
    Frobenius,
    GroupMeta,
    GroupSpec,
    Product,
    Quaternion,
    Semidirect,
    SemidirectIsotypic,
    TableGroup,
    Trivial,
    frobenius_exponents,
    parse_spec,
    realize,
)
from .oracle import (
    RankResult,
    SparseMatrix,
    cochain_cohomology_dim,
    fixed_space_dim,
    rank_mod_p,
)
from .qbounds import (
    KNOWN_EXACT_Q4,
    KNOWN_MU2_SO3_NONPERIODIC,
    QBoundReport,
    Verdict,
    VerdictKind,
    annotation_for,
    bounds_from_invariants,
    euler_sign_check,
    periodic_exact_value,
    q_bound_report,
    qs4_verdict,
    subgroup_refine,
)
from .resolution import (
    ComparisonRow,
    FpModule,
    semidirect_character_module,
    verify_series,
)
from .series import (
    DimSeries,
    closed_form_series,
    series_cyclic,
    series_elementary_abelian,
    series_product,
    series_semidirect_invariants,
    trivial_series,
)
from .swan import (
    Exceptionality,
    MunResult,
    SwanReport,
    SwanRow,
    compute_en,
    compute_mun,
    en_value,
    mun_pgroup,
    series_bundle,
    swan_report,
)

__version__ = "0.1.0"
