"""The cohomological invariants e_n and the Swan invariants mu_n, mu'_n.

e_n(G) is the least integer bounding, over F = Q and F = F_p for every
prime p dividing |G|,

    h^n(G,F) - 2 (h^{n-1}(G,F) - h^{n-2}(G,F) + ... +- h^0(G,F)).

mu_n(G) is the least integer bounding (dim M)^{-1} (h^n(G,M) - ... +-
h^0(G,M)) over simple F_pG-modules M, subject to the floors mu_n >= 1 for
n even and mu_n >= 0 for n odd (G nontrivial).  mu'_n is the projective
variant: it differs from mu_n only for the exceptional pairs, which are
never detected here, only declared through spec metadata.

Computation paths by family:
  p-groups              alternating sums of the closed-form series
  cyclic                1 for n even, 0 for n odd
  semidirect E_k x| C   character enumeration (all simples are linear)
  declared period       periodicity facts in the degrees they cover
  table + module list   Swan formula on a free resolution (`resolution`)

Series without a closed form (quaternion, table), which e_n needs, are read
off a free resolution too (oracle_series).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .characters import mun_semidirect
from .errors import (
    EulerCharError,
    MissingMetadataError,
    TruncationError,
    UnsupportedFamilyError,
)
from .groupspec import ConcreteGroup, Cyclic, CyclicSemidirect, GroupSpec, SemidirectIsotypic, realize
from .resolution import MAX_ORDER, FpModule, Resolution
from .series import DimSeries, closed_form_series, trivial_series


class Exceptionality(enum.Enum):
    """Whether (G, n) is an exceptional pair (periodic with no periodic free resolution)."""

    NO = "no"
    DECLARED = "declared"
    UNKNOWN = "unknown"


def en_value(series: DimSeries, n: int) -> int:
    """The e_n expression for a single coefficient field."""
    if n < 1:
        raise EulerCharError("e_n is defined for n >= 1")
    if series.n_max < n:
        raise TruncationError(
            f"series over {series.field_name} truncated at {series.n_max}, need degree {n}"
        )
    tail = 0
    for i in range(n):
        sign = 1 if (n - 1 - i) % 2 == 0 else -1
        tail += sign * series.dims[i]
    return series.dims[n] - 2 * tail


def compute_en(series_list, n: int) -> int:
    """Maximum of the e_n expression over the supplied fields; Q must be present."""
    series_list = list(series_list)
    if not series_list:
        raise EulerCharError("need at least one series")
    if all(s.p is not None for s in series_list):
        raise EulerCharError("the rational series must be included in e_n")
    return max(en_value(s, n) for s in series_list)


def mun_pgroup(series: DimSeries, n: int) -> int:
    """Swan invariant of a p-group from its F_p series.

    The trivial module is the only simple one, so mu_n is the alternating
    partial sum of the series, clamped by the floors for nontrivial groups.
    """
    if n < 1:
        raise EulerCharError("mu_n is defined for n >= 1")
    if series.n_max < n:
        raise TruncationError(f"series truncated at {series.n_max}, need degree {n}")
    total = 0
    for i in range(n + 1):
        sign = 1 if (n - i) % 2 == 0 else -1
        total += sign * series.dims[i]
    if not any(series.dims[1:]):
        return total  # trivial group: no floors
    floor = 1 if n % 2 == 0 else 0
    return max(floor, total)


def _resolution_series(group: ConcreteGroup, field: int, n_max: int, memory_budget) -> DimSeries:
    """The F_p series of a realized group; Maschke when p does not divide |G|."""
    if group.order % field:
        return trivial_series(field, n_max)
    resolution = Resolution(group, field, memory_budget)
    return DimSeries(field, resolution.cohomology_dims(FpModule.trivial(field, group.order), n_max))


def oracle_series(spec: GroupSpec, field: int | None, n_max: int, memory_budget=None) -> DimSeries:
    """Dimension series read off a free resolution (groups up to MAX_ORDER).

    Over Q, and over F_p for p not dividing |G|, H^n vanishes for n > 0
    (Maschke), so no resolution is built.  Over F_p the spec is realized
    (its table read and checked) once per call.
    """
    if field is None:
        return trivial_series(None, n_max)
    return _resolution_series(realize(spec, max_order=MAX_ORDER), field, n_max, memory_budget)


def field_series(spec: GroupSpec, field: int | None, n_max: int, memory_budget=None) -> DimSeries:
    """The closed-form series, or oracle_series for families without one.

    Families without a closed form are explicit tables and quaternion
    groups; oracle_series realizes the spec once and builds one free
    F_pG-resolution to degree n_max - 1 (the top degree is read off the
    last kernel), for groups up to MAX_ORDER (64).  A query over several
    fields goes through series_bundle, which realizes the spec only once.
    """
    try:
        return closed_form_series(spec, field, n_max)
    except UnsupportedFamilyError:
        return oracle_series(spec, field, n_max, memory_budget)


def series_bundle(spec: GroupSpec, n_max: int, memory_budget=None) -> dict[int | None, DimSeries]:
    """One series per relevant coefficient field: Q plus each prime dividing |G|.

    As field_series, except that the spec is realized at most once: the
    first field without a closed form realizes it, and every such field
    resolves that same group.
    """
    bundle = {None: field_series(spec, None, n_max)}  # Q never needs the group
    group = None
    for field in spec.primes():
        try:
            bundle[field] = closed_form_series(spec, field, n_max)
        except UnsupportedFamilyError:
            if group is None:
                group = realize(spec, max_order=MAX_ORDER)
            bundle[field] = _resolution_series(group, field, n_max, memory_budget)
    return bundle


@dataclass(frozen=True)
class MunResult:
    mu: int
    mu_prime: int
    exceptional: Exceptionality
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mu_prime > self.mu:
            raise EulerCharError("mu'_n cannot exceed mu_n")


def _mu1_from_metadata(spec: GroupSpec, notes: list[str]) -> int:
    d = spec.require_meta("d")
    if spec.meta.solvable is True:
        notes.append(f"mu_1 = d(G) - 1 = {d - 1} (declared solvable)")
    else:
        spec.require_meta("solvable")
        notes.append(f"mu_1 <= d(G) - 1 = {d - 1}; exact value unknown for nonsolvable groups (upper bound used)")
    return d - 1


def _family_mu(spec: GroupSpec, n: int, notes: list[str]) -> int | None:
    """Family-specific mu_n, or None when only declared metadata can help."""
    if spec.order() == 1:
        return 1 if n % 2 == 0 else -1
    if isinstance(spec, Cyclic):
        return 1 if n % 2 == 0 else 0
    p = spec.pgroup_prime()
    if p is not None:
        series = closed_form_series(spec, p, n)
        return mun_pgroup(series, n)
    if isinstance(spec, CyclicSemidirect):
        if n == 1:
            if isinstance(spec, SemidirectIsotypic):
                # faithful isotypic action: the vector part needs k module
                # generators, so d = k + 1 and the solvable equality applies
                notes.append(f"mu_1 = k = {spec.k} (solvable, d = k + 1)")
                return spec.k
            return _mu1_from_metadata(spec, notes)
        value = mun_semidirect(spec.exponents(), spec.p, n)
        notes.append("contributions at primes dividing |C| are bounded by the parity floors")
        return value
    return None


def _oracle_mu(spec: GroupSpec, n: int, modules, memory_budget, notes: list[str]) -> int:
    group = realize(spec, max_order=MAX_ORDER)
    resolutions: dict[int, Resolution] = {}  # one per characteristic, shared by its modules
    best = None
    for module in modules:
        if module.p not in resolutions:
            resolutions[module.p] = Resolution(group, module.p, memory_budget)
        dims = resolutions[module.p].cohomology_dims(module, n)
        total = sum((1 if (n - i) % 2 == 0 else -1) * dims[i] for i in range(n + 1))
        value = math.ceil(total / module.dim)
        best = value if best is None else max(best, value)
    if best is None:
        raise EulerCharError("empty module list")
    notes.append(f"Swan formula evaluated on {len(modules)} supplied simple modules")
    floor = 1 if n % 2 == 0 else 0
    return max(floor, best)


def compute_mun(
    spec: GroupSpec,
    n: int,
    modules=None,
    memory_budget=None,
) -> MunResult:
    """(mu_n, mu'_n, exceptionality) for a supported spec.

    mu'_n equals mu_n unless the spec declares a period dividing n+1
    together with exceptionality, in which case the pair is (1, 0).
    """
    if n < 1:
        raise EulerCharError("mu_n is defined for n >= 1")
    notes: list[str] = []
    period = spec.meta.period
    divides_np1 = period is not None and (n + 1) % period == 0
    divides_np2 = period is not None and (n + 2) % period == 0

    if modules is not None:
        mu = _oracle_mu(spec, n, modules, memory_budget, notes)
    else:
        mu = _family_mu(spec, n, notes)

    if mu is None:
        # no computed path: fall back on declared periodicity facts
        if divides_np2 and n % 2 == 0:
            notes.append(f"declared period {period} divides n + 2: a periodic resolution gives mu_n = 1")
            mu = 1
        elif divides_np1:
            if spec.meta.exceptional is True:
                _validate_exceptional(spec, n)
                return MunResult(1, 0, Exceptionality.DECLARED, tuple(notes))
            if spec.meta.exceptional is False:
                notes.append(f"declared period {period} divides n + 1 with a periodic free resolution: mu_n = 0")
                return MunResult(0, 0, Exceptionality.NO, tuple(notes))
            notes.append(
                f"declared period {period} divides n + 1; mu_n is 0 or 1 depending on undeclared exceptionality"
            )
            return MunResult(1, 1, Exceptionality.UNKNOWN, tuple(notes))
        elif n == 1:
            mu = _mu1_from_metadata(spec, notes)
        else:
            raise UnsupportedFamilyError(f"no mu_n path for {spec} at n = {n}")

    if not divides_np1:
        return MunResult(mu, mu, Exceptionality.NO, tuple(notes))
    # declared period divides n + 1 (n odd); resolve exceptionality
    if spec.meta.exceptional is True:
        _validate_exceptional(spec, n)
        return MunResult(1, 0, Exceptionality.DECLARED, tuple(notes))
    if spec.meta.exceptional is False or _never_exceptional(spec):
        return MunResult(mu, mu, Exceptionality.NO, tuple(notes))
    return MunResult(mu, mu, Exceptionality.UNKNOWN, tuple(notes))


def _validate_exceptional(spec: GroupSpec, n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise EulerCharError(f"exceptional pairs require odd n >= 3, got n = {n}")
    if _never_exceptional(spec):
        raise EulerCharError("cyclic groups and p-groups are never exceptional")


def _never_exceptional(spec: GroupSpec) -> bool:
    """Cyclic groups and nontrivial p-groups are never exceptional."""
    return isinstance(spec, Cyclic) or spec.pgroup_prime() not in (None, 1)


@dataclass(frozen=True)
class SwanRow:
    n: int
    e_n: int | None
    mu_n: int | None
    mu_prime_n: int | None
    exceptional: Exceptionality
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mu_n is not None and self.mu_prime_n is not None:
            if self.mu_prime_n > self.mu_n:
                raise EulerCharError("mu'_n cannot exceed mu_n")
        if self.exceptional is Exceptionality.DECLARED:
            if self.mu_n != 1 or self.mu_prime_n != 0 or self.n % 2 == 0 or self.n < 3:
                raise EulerCharError("declared exceptional pairs force (mu, mu') = (1, 0) at odd n >= 3")


@dataclass(frozen=True)
class SwanReport:
    spec: GroupSpec
    rows: tuple[SwanRow, ...]

    def row(self, n: int) -> SwanRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise EulerCharError(f"no row for degree {n}")


def swan_report(spec: GroupSpec, n_max: int, modules=None, memory_budget=None) -> SwanReport:
    """Per-degree table of e_n, mu_n, mu'_n for n = 1..n_max.

    Degrees whose values need absent metadata or an unavailable path are
    reported as None with an explanatory note rather than failing the
    whole report.
    """
    if n_max < 1:
        raise EulerCharError("n_max must be >= 1")
    bundle = series_bundle(spec, n_max, memory_budget)
    rows = []
    for n in range(1, n_max + 1):
        e_n = compute_en(bundle.values(), n)
        try:
            res = compute_mun(spec, n, modules=modules, memory_budget=memory_budget)
            rows.append(SwanRow(n, e_n, res.mu, res.mu_prime, res.exceptional, res.notes))
        except (MissingMetadataError, UnsupportedFamilyError) as exc:
            rows.append(SwanRow(n, e_n, None, None, Exceptionality.NO, (str(exc),)))
    return SwanReport(spec, tuple(rows))
