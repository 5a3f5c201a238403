"""The cohomological invariants e_n and the Swan invariants mu_n, mu'_n.

e_n(G) is the least integer bounding, over F = Q and F = F_p for every
prime p dividing |G|,

    h^n(G,F) - 2 (h^{n-1}(G,F) - h^{n-2}(G,F) + ... +- h^0(G,F)).

mu_n(G) is the least integer bounding (dim M)^{-1} (h^n(G,M) - ... +-
h^0(G,M)) over simple F_pG-modules M, subject to the floors mu_n >= 1 for
n even and mu_n >= 0 for n odd (G nontrivial).  mu'_n is the projective
variant: it differs from mu_n only for the exceptional pairs, which are
never detected here, only declared on the spec (GroupSpec.exceptional).

Computation paths (swan_formula is the only Swan sum, parity_floor its clamp):
the Swan simples (dim S, h^*(G; S)) are the family's record
(GroupSpec.swan_record, its simple_series at each prime dividing |G|), or
supplied modules on one free resolution per characteristic (_swan_simples).
One reader, _read_mun, takes every mu_n from them, mu_1 = d(G) - 1
included: the package's one route to d(G), with the premise that makes it
exact; a spec with no record falls back on its period, and at n = 1 on
d(G) and solvability read off the realized group (_mu1).  swan_report
reads the record once, at its top degree; q_bound_report still reads
mu_n and mu_{n-1} apart, because the benchmark's peak_rss_mb counts its
own per-query records, so a faster single read would read as more memory
(ROADMAP item 1).

The dimension series that e_n needs come from one loop, series_bundle:
Maschke over Q; per prime the trivial entry of the family's record
(GroupSpec.fp_series), else Maschke for p not dividing |G|, else one free
resolution of G/O_p'(G), the group realized once per spec
(GroupSpec.group).  For N normal of order prime to p, H^q(N; F_p) = 0
for q > 0, as |N| is invertible (Brown, Cohomology of Groups, III.10), so
the Lyndon-Hochschild-Serre spectral sequence (Brown VII.6) collapses to
H^*(G; F_p) = H^*(G/N; F_p); with N = O_p'(G) a p-nilpotent group
resolves as its Sylow p-subgroup, on the minimal resolution.  Twisted
modules and verify_series stay on G.  Every entry from a spec to the
engine lives in this module (series_bundle, _swan_simples, verify_series,
semidirect_character_module); only these paths import `resolution`, and
numpy with it, and `resolution` sees only realized groups and modules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .characters import alternating_sum, parity_floor, swan_formula
from .errors import EulerCharError, TruncationError, UnsupportedFamilyError
from .groupspec import MAX_ORDER, GroupSpec, Semidirect, unit_of_order
from .series import DimSeries, check_series_args, is_prime, trivial_series

if TYPE_CHECKING:
    from .groupspec import ConcreteGroup
    from .resolution import FpModule


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
    return series.dims[n] - 2 * alternating_sum(series.dims, n - 1)


def compute_en(series_list, n: int) -> int:
    """Maximum of the e_n expression over the supplied fields; Q must be present."""
    series_list = list(series_list)
    if not series_list:
        raise EulerCharError("need at least one series")
    if all(s.p is not None for s in series_list):
        raise EulerCharError("the rational series must be included in e_n")
    return max(en_value(s, n) for s in series_list)


def series_bundle(spec: GroupSpec, n_max: int, memory_budget=None, fields=None) -> dict[int | None, DimSeries]:
    """One dimension series per coefficient field, keyed by field (None is Q).

    `fields` defaults to Q plus each prime dividing |G|.  Over Q, H^n = 0
    for n > 0 (Maschke) and no group is needed.  Over F_p the series is
    the trivial entry of the family's record (`GroupSpec.fp_series`) where
    it has one; else the spec is realized (GroupSpec.group, once per spec,
    for groups up to MAX_ORDER), and a prime not dividing |G| again gives
    Maschke's series, while a prime dividing it gets one free resolution
    of G/O_p'(G) (ConcreteGroup.p_prime_quotient), built to degree
    n_max - 1 (the top degree is read off the last kernel).  The quotient
    has the same trivial cohomology: O_p'(G) has none above degree 0 over
    F_p (Brown III.10), so the Lyndon-Hochschild-Serre spectral sequence
    (Brown VII.6) collapses.  Families without a record are explicit
    tables, quaternion groups and products with such a factor.
    """
    bundle = {}
    for field in [None, *spec.primes()] if fields is None else fields:
        check_series_args(field, n_max)
        series = None if field is None else spec.fp_series(field, n_max)
        if series is None and field is not None:
            group = spec.group  # reads and checks a table before Maschke is applied
            if group.order % field == 0:
                from .resolution import FpModule, Resolution
                quotient = group.p_prime_quotient(field)  # H^*(G; F_p) = H^*(G / O_p'(G); F_p)
                resolution = Resolution(quotient, field, memory_budget)
                series = DimSeries(field, resolution.cohomology_dims([FpModule.trivial(field, quotient.order)], n_max)[0])
        bundle[field] = trivial_series(field, n_max) if series is None else series
    return bundle


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    closed_form: int
    oracle: int  # read off the free resolution; the name is oracle-check's JSON key

    @property
    def match(self) -> bool:
        return self.closed_form == self.oracle


def verify_series(spec: GroupSpec, p: int, n_max: int, memory_budget: int | None = None) -> list[ComparisonRow]:
    """The family's dims with trivial coefficients (`GroupSpec.fp_series`) against the resolution engine, degree by degree.

    The independent check of the family records: the engine runs on G
    itself, even where series_bundle would take the record, Maschke's
    shortcut or the quotient G/O_p'(G).
    """
    from .resolution import FpModule, Resolution
    check_series_args(p, n_max)
    group = spec.group
    closed = spec.fp_series(p, n_max)
    if closed is None:
        raise UnsupportedFamilyError(f"no closed-form series for {spec}")
    dims = Resolution(group, p, memory_budget).cohomology_dims([FpModule.trivial(p, group.order)], n_max)[0]
    return [ComparisonRow(n, closed.dim(n), dims[n]) for n in range(n_max + 1)]


def semidirect_character_module(spec: GroupSpec, beta: int, group: ConcreteGroup) -> FpModule:
    """One-dimensional module L(beta) of a realized semidirect group.

    The cyclic complement acts through the canonical element of order m in
    F_p (the same one realize() uses), raised to beta; the vector part acts
    trivially.  Requires m | p - 1.
    """
    if not isinstance(spec, Semidirect):
        raise EulerCharError("character modules are defined for semidirect specs only")
    from .resolution import FpModule, check_against
    zeta = unit_of_order(spec.p, spec.m)
    # element idx has complement coordinate idx % m
    mats = [[[pow(zeta, (beta * (idx % spec.m)) % spec.m, spec.p)]] for idx in range(group.order)]
    module = FpModule(spec.p, mats)
    check_against(group, [module])
    return module


@dataclass(frozen=True)
class MunResult:
    mu: int
    mu_prime: int
    exceptional: Exceptionality
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mu_prime > self.mu:
            raise EulerCharError("mu'_n cannot exceed mu_n")


def _mu1(spec: GroupSpec, notes: list[str]) -> int:
    """mu_1 = d(G) - 1 for a spec with no Swan record, d(G) and solvability read off the realized group.

    ConcreteGroup.generator_count searches the table for d(G) up to
    MAX_ORDER; past it only a prime order, d = 1, is known.  For a
    nonsolvable group d(G) - 1 is only an upper bound on mu_1, which keeps
    the lower bound mu'_2 - mu'_1 sound.
    """
    if spec.order() <= MAX_ORDER:
        d = spec.group.generator_count()
    elif is_prime(spec.order()):
        d = 1
    else:
        raise UnsupportedFamilyError(f"no mu_n path at n = 1: d(G) is read off groups of order <= {MAX_ORDER}")
    if d <= 1:
        notes.append(f"mu_1 = d(G) - 1 = {d - 1} (cyclic, d = {d})")
    elif spec.group.is_solvable():
        notes.append(f"mu_1 = d(G) - 1 = {d - 1} (solvable)")
    else:
        notes.append(f"mu_1 <= d(G) - 1 = {d - 1}; exact value unknown for nonsolvable groups (upper bound used)")
    return d - 1


def _swan_simples(spec: GroupSpec, n_max: int, modules, memory_budget=None) -> list:
    """(dim S, h^0..h^n_max(G; S)) for the supplied modules, grouped by characteristic.

    The modules over one F_p go through one `Resolution.cohomology_dims`
    call on one free resolution: one check of their actions, and one Hom
    product and one elimination per degree for all of them.
    """
    if not modules:
        raise EulerCharError("empty module list")
    from .resolution import Resolution
    group = spec.group
    by_field: dict[int, list] = {}
    for module in modules:
        by_field.setdefault(module.p, []).append(module)
    simples = []
    for p, of_p in by_field.items():
        dims = Resolution(group, p, memory_budget).cohomology_dims(of_p, n_max)
        simples += [(module.dim, series) for module, series in zip(of_p, dims)]
    return simples


def compute_mun(spec: GroupSpec, n: int, modules=None, memory_budget=None) -> MunResult:
    """(mu_n, mu'_n, exceptionality) for a supported spec.

    mu'_n equals mu_n unless the period of G (GroupSpec.known_period)
    divides n+1 and the spec declares exceptionality (GroupSpec.exceptional),
    in which case the pair is (1, 0); a declaration on a group with no
    period is refused.  `modules` replaces the family's Swan record by the
    supplied simples.
    """
    if n < 1:
        raise EulerCharError("mu_n is defined for n >= 1")
    if modules is None:
        return _read_mun(spec, n, spec.swan_record(n))
    simples = _swan_simples(spec, n, modules, memory_budget)
    return _read_mun(spec, n, simples, f"Swan formula evaluated on {len(simples)} supplied simple modules")


def _read_mun(spec: GroupSpec, n: int, simples: list | None, note: str | None = None) -> MunResult:
    """compute_mun at degree n off the Swan simples (`note` names supplied ones), else off the period of G.

    The simples may reach past degree n: alternating_sum reads degrees <= n
    only, and a simple with no cohomology up to n adds a 0 the floor absorbs.

    At n = 1 the record gives mu_1 = d(G) - 1, the Swan sum.  For solvable
    G, d(G) = 1 + max over simple S of ceil((h^1(G; S) - h^0(G; S)) / dim S)
    wherever H^1(G / C_G(S); S) = 0 (Gaschuetz; Aschbacher-Guralnick, Some
    applications of the first cohomology group, J. Algebra 90, 1984).  That
    premise holds for every record here: the groups are solvable with
    abelian Gamma = G / (O_p'(G) O_p(G)) (for a product,
    Gamma(H x K) = Gamma(H) x Gamma(K)), so G / C_G(S) is cyclic of order
    prime to p, and a simple the record leaves out has no H^1 and adds 0.
    A family with nonsolvable groups or a nonabelian Gamma (ROADMAP items 2
    and 8) must revisit this.  A spec with no record reads d(G) off its
    realized group (_mu1), which needs no such premise.
    """
    notes: list[str] = []
    period = spec.known_period()
    divides_np1 = period is not None and (n + 1) % period == 0
    divides_np2 = period is not None and (n + 2) % period == 0
    # cyclic groups (for G != 1, period 2) and groups of prime-power order are never exceptional
    never_exceptional = divides_np1 and (period == 2 or len(spec.primes()) <= 1)
    exceptional = spec.exceptional
    if exceptional and period is None:
        raise EulerCharError("only a periodic group can be exceptional, and G has no known period")
    if exceptional is None and never_exceptional:
        exceptional = False  # settled by the group, as a declaration would be

    if simples is not None:
        if note is not None:
            notes.append(note)
        elif isinstance(spec, Semidirect) and spec.m > 1 and spec.exps:
            notes.append("contributions at primes dividing |C| are bounded by the parity floors")
        mu = swan_formula(n, simples)
        mu = parity_floor(n, mu) if spec.order() > 1 else mu  # the floors hold for G nontrivial
    elif divides_np2 and n % 2 == 0:  # no simples: fall back on the period
        notes.append(f"period {period} divides n + 2: a periodic resolution gives mu_n = 1")
        mu = 1
    elif divides_np1:
        # exceptionality is resolved once, below
        if exceptional is False:
            notes.append(f"period {period} divides n + 1 with a periodic free resolution: mu_n = 0")
        elif exceptional is None:
            notes.append(f"period {period} divides n + 1; mu_n is 0 or 1 depending on undeclared exceptionality")
        mu = 0 if exceptional is False else 1
    elif n == 1:
        mu = _mu1(spec, notes)
    else:
        raise UnsupportedFamilyError(f"no mu_n path at n = {n}")

    if divides_np1 and exceptional is True:
        # n is odd, and n = 1 needs period 2, which makes G cyclic: a pair that passes has n >= 3
        if never_exceptional:
            raise EulerCharError("cyclic groups (period 2) and groups of prime-power order are never exceptional")
        return MunResult(1, 0, Exceptionality.DECLARED, tuple(notes))
    unknown = divides_np1 and exceptional is None
    return MunResult(mu, mu, Exceptionality.UNKNOWN if unknown else Exceptionality.NO, tuple(notes))


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


def swan_report(spec: GroupSpec, n_max: int, memory_budget=None) -> SwanReport:
    """Per-degree table of e_n, mu_n, mu'_n for n = 1..n_max.

    Degrees with no mu_n path are reported as None with an explanatory
    note rather than failing the whole report.
    """
    if n_max < 1:
        raise EulerCharError("n_max must be >= 1")
    bundle = series_bundle(spec, n_max, memory_budget)
    simples = spec.swan_record(n_max)
    rows = []
    for n in range(1, n_max + 1):
        e_n = compute_en(bundle.values(), n)
        try:
            res = _read_mun(spec, n, simples)
            rows.append(SwanRow(n, e_n, res.mu, res.mu_prime, res.exceptional, res.notes))
        except UnsupportedFamilyError as exc:
            rows.append(SwanRow(n, e_n, None, None, Exceptionality.NO, (str(exc),)))
    return SwanReport(spec, tuple(rows))
