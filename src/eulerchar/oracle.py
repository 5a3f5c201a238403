"""The bar-cochain reference: cohomology dimensions by brute force.

The package computes cohomology with the free-resolution engine in
`resolution`.  This module is the independent reference that the tests,
demo 04 and the benchmark's pattern check compare it against; no
production path calls it.  It takes only the module type `FpModule` and
the memory-budget rule from the engine's module: it consults neither the
series and character machinery nor the engine's resolutions or its
eliminator `echelon_mod_p`, so a fault there cannot hide in both.

C^n(G; M) is the space of functions G^n -> M (C^0 = M), with the
standard coboundary

    (d f)(g_1,...,g_{n+1}) = g_1 f(g_2,...,g_{n+1})
        + sum_i (-1)^i f(g_1,...,g_i g_{i+1},...,g_{n+1})
        + (-1)^{n+1} f(g_1,...,g_n)

and h^n = dim C^n - rank d^n - rank d^{n-1}, all over F_p with exact
arithmetic.  The cochain spaces have dimension |G|^n dim M, so this is for
small groups in low degrees.  `coboundary_matrix` builds d^n in one numpy
pass, one broadcast for the action term, one per face map and one for the
last term, and returns its nonzero entries (column, row, value mod p)
with duplicate positions summed.  Ranks are taken by Gaussian elimination
with a fixed pivot order (first nonzero by ascending row within each
column vector), so results are reproducible bit for bit.

The entries are packed straight into the form each eliminator reads:
  p = 2   columns as Python int bitsets (bit r is row r)
  p = 3   columns as two bitplanes (value 1 -> lo bit, value 2 -> hi bit)
  p >= 5  a dense int64 array, one row per column, for `_rank_dense`
At p <= 3 the entries are OR-ed into a uint8 array of one row per column
and plane, and each column is read out as an int by `int.from_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EulerCharError
from .groupspec import ConcreteGroup
from .resolution import DEFAULT_MEMORY_BUDGET, FpModule, check_against
from .series import is_prime


def _rank_gf2(columns) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in columns:
        while v:
            pos = (v & -v).bit_length() - 1
            pivot = pivots.get(pos)
            if pivot is None:
                pivots[pos] = v
                rank += 1
                break
            v ^= pivot
    return rank


def _gf3_add(alo: int, ahi: int, blo: int, bhi: int) -> tuple[int, int]:
    e = alo ^ blo
    f = ahi ^ bhi
    return (e & ~f) | (ahi & bhi), (f & ~e) | (alo & blo)


def _rank_gf3(columns) -> int:
    pivots: dict[int, tuple[int, int]] = {}
    rank = 0
    for lo, hi in columns:
        while lo | hi:
            mask = lo | hi
            pos = (mask & -mask).bit_length() - 1
            entry = pivots.get(pos)
            if entry is None:
                if (hi >> pos) & 1:
                    lo, hi = hi, lo  # scale by 2 so the pivot entry is 1
                pivots[pos] = (lo, hi)
                rank += 1
                break
            plo, phi = entry
            if (lo >> pos) & 1:
                lo, hi = _gf3_add(lo, hi, phi, plo)  # subtract the pivot
            else:
                lo, hi = _gf3_add(lo, hi, plo, phi)  # subtract twice the pivot
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of a dense 2-d integer matrix (an array or nested lists)."""
    if not is_prime(p):
        raise EulerCharError(f"rank_mod_p needs a prime field, got p = {p}")
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % p
    rows, cols = np.nonzero(a)
    return _rank_entries(cols, rows, a[rows, cols], a.shape, p)


def _rank_entries(cols, rows, values, shape: tuple[int, int], p: int) -> int:
    """Rank over F_p of the (nrows, ncols) matrix with these entries, values in 1..p-1."""
    nrows, ncols = shape
    if p >= 5:
        dense = np.zeros((ncols, nrows), dtype=np.int64)  # rows of the eliminated array are the matrix columns
        dense[cols, rows] = values
        return _rank_dense(dense, p)
    planes = np.zeros((p - 1, ncols, -(-nrows // 8)), dtype=np.uint8)  # plane v - 1 holds the entries of value v
    np.bitwise_or.at(planes, (values - 1, cols, rows >> 3), np.left_shift(1, rows & 7).astype(np.uint8))
    bitsets = [(int.from_bytes(column, "little") for column in plane) for plane in planes]
    return _rank_gf2(bitsets[0]) if p == 2 else _rank_gf3(zip(*bitsets))


def _rank_dense(a: np.ndarray, p: int) -> int:
    """Rank over F_p of a dense array reduced mod p, eliminated in place.

    Gaussian elimination, column by column, the first nonzero row at or
    below the current one as the pivot, every entry reduced mod p after
    each step.  It shares no code with the engine's `echelon_mod_p`.
    """
    nrows = a.shape[0]
    row = 0
    for col in np.flatnonzero(a.any(axis=0)).tolist():
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] * pow(int(a[row, col]), -1, p) % p
        below = row + 1 + np.nonzero(a[row + 1 :, col])[0]
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[row])) % p
        row += 1
    return row


def coboundary_matrix(group: ConcreteGroup, module: FpModule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (cols, rows, values) of d^n : C^n -> C^(n+1).

    In the delta-function bases: index t * dim M + j is basis vector j of M
    at the tuple whose base-|G| digits, most significant first, are t.  The
    int64 arrays are sorted by column, then row; each position appears
    once, its contributions summed and reduced mod p, and zeros are dropped.
    """
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    p, order, dim = module.p, group.order, module.dim
    size = order**n  # n-tuples
    nrows = size * order * dim
    t = np.arange(size, dtype=np.int64)[:, None, None]
    x = np.arange(order, dtype=np.int64)[:, None]
    j = np.arange(dim, dtype=np.int64)
    columns = t * dim + j
    acting = np.nonzero(module.matrices)  # (g, i, j) of each nonzero action entry
    # (row, col, value) blocks: g . f(g_2, ..., g_{n+1}), the face maps merging
    # adjacent arguments, and (-1)^{n+1} f(g_1, ..., g_n)
    terms = [((acting[0] * size + t) * dim + acting[1], t * dim + acting[2], module.matrices[acting])]
    for pos in range(1, n + 1):
        width = order ** (n - pos)
        y = group.mul[group.inv[x], t // width % order]  # x y = g_pos
        merged = ((t // (width * order) * order + x) * order + y) * width + t % width
        terms.append((merged * dim + j, columns, (-1) ** pos))
    terms.append(((t * order + x) * dim + j, columns, (-1) ** (n + 1)))
    keys = [col * nrows + row for row, col, _ in terms]
    values = np.concatenate([np.broadcast_to(np.int64(v), key.shape).ravel() for key, (*_, v) in zip(keys, terms)])
    keys = np.concatenate([key.ravel() for key in keys])
    perm = np.argsort(keys)
    keys = keys[perm]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(values[perm], first) % p
    nonzero = sums != 0
    cols, rows = np.divmod(keys[first[nonzero]], nrows)
    return cols, rows, sums[nonzero]


@dataclass(frozen=True)
class RankResult:
    """Ranks feeding one cohomology dimension: h^n = dim C^n - rk d^n - rk d^(n-1)."""

    n: int
    dim_cochains: tuple[int, int, int]  # dims of C^(n-1), C^n, C^(n+1)
    rank_prev: int
    rank_here: int

    @property
    def h(self) -> int:
        return self.dim_cochains[1] - self.rank_here - self.rank_prev

    def __post_init__(self):
        if self.h < 0:
            raise EulerCharError("negative cohomology dimension: inconsistent ranks")


def _estimate_bytes(order: int, dim: int, n: int, p: int) -> int:
    """An upper bound on the bytes that building and ranking d^n hold at once."""
    ncols = order**n * dim
    nrows = ncols * order
    raw = ncols * order * (dim + n + 1)  # entries before duplicates are summed
    build = 48 * raw  # keys and values, their concatenated copies, the sort permutation
    entries = 24 * raw  # the summed (cols, rows, values) and the packing indices
    if p >= 5:
        return build + entries + 4 * 8 * ncols * nrows  # the array and three row-block temporaries
    planes = p - 1
    packed = planes * ncols * -(-nrows // 8)
    ints = planes * ncols * (4 * -(-nrows // 30) + 32) + 200 * ncols  # int columns and pivot dict
    return build + entries + packed + ints


def cochain_cohomology_dim(
    group: ConcreteGroup,
    module: FpModule,
    n: int,
    memory_budget: int | None = None,
) -> RankResult:
    """dim H^n(G; M) by exact rank computation on the bar cochain complex."""
    check_against(group, [module])
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    p, order, dim = module.p, group.order, module.dim

    def rank(k: int) -> int:
        needed = _estimate_bytes(order, dim, k, p)  # reserved before d^k is built
        if needed > budget:
            raise BudgetError(needed, budget)
        return _rank_entries(*coboundary_matrix(group, module, k), (order ** (k + 1) * dim, order**k * dim), p)

    rank_here = rank(n)  # the larger matrix first, so an over-budget call builds nothing
    dims = (order ** (n - 1) * dim if n else 0, order**n * dim, order ** (n + 1) * dim)
    return RankResult(n, dims, rank(n - 1) if n else 0, rank_here)


def fixed_space_dim(group: ConcreteGroup, module: FpModule) -> int:
    """dim M^G, computed independently by solving (action[g] - 1)x = 0."""
    dim = module.dim
    stacked = module.matrices.astype(np.int64) - np.eye(dim, dtype=np.int64)
    return dim - rank_mod_p(stacked.reshape(group.order * dim, dim), module.p)
