"""Cohomological bounds on minimal Euler characteristics for finite groups.

numpy enters only with a concrete group: realizing a spec (its table and
ConcreteGroup, see `groupspec`), building a free resolution (`resolution`)
or a module, and the bar-complex reference (`oracle`).  The closed forms,
the spec grammar and the CLI parser load none of them, so the names below
that live in `resolution` and `oracle` are imported on first access.
"""

import importlib

from .errors import (
    BudgetError,
    EulerCharError,
    RealizeError,
    SpecError,
    TruncationError,
    UnsupportedFamilyError,
)
from .groupspec import (
    ConcreteGroup,
    GroupMeta,
    GroupSpec,
    Product,
    Quaternion,
    Semidirect,
    TableGroup,
    parse_spec,
    realize,
)
from .qbounds import (
    KNOWN_EXACT_Q4,
    QBoundReport,
    Verdict,
    VerdictKind,
    annotation_for,
    bounds_from_invariants,
    euler_sign_check,
    periodic_exact_value,
    q_bound_report,
    subgroup_refine,
)
from .series import (
    DimSeries,
    series_cyclic,
    series_elementary_abelian,
    trivial_series,
)
from .swan import (
    Exceptionality,
    compute_en,
    compute_mun,
    en_value,
    semidirect_character_module,
    series_bundle,
    swan_formula,
    swan_report,
    verify_series,
)

__version__ = "0.1.0"

# name -> the engine module that defines it, imported on first access (PEP 562)
_ENGINE_NAMES = {
    "FpModule": "resolution",
    **dict.fromkeys(("cochain_cohomology_dim", "fixed_space_dim", "rank_mod_p"), "oracle"),
}


def __getattr__(name):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ENGINE_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ENGINE_NAMES))


__all__ = [
    # errors
    "BudgetError", "EulerCharError", "RealizeError", "SpecError", "TruncationError",
    "UnsupportedFamilyError",
    # groupspec
    "ConcreteGroup", "GroupMeta", "GroupSpec", "Product", "Quaternion", "Semidirect", "TableGroup",
    "parse_spec", "realize",
    # qbounds
    "KNOWN_EXACT_Q4", "QBoundReport", "Verdict", "VerdictKind", "annotation_for",
    "bounds_from_invariants", "euler_sign_check", "periodic_exact_value", "q_bound_report",
    "subgroup_refine",
    # series
    "DimSeries", "series_cyclic", "series_elementary_abelian", "trivial_series",
    # swan
    "Exceptionality", "compute_en", "compute_mun", "en_value", "semidirect_character_module", "series_bundle",
    "swan_formula", "swan_report", "verify_series",
    # resolution and oracle, imported on first access
    *_ENGINE_NAMES,
]
