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
small groups in low degrees.  Coboundary matrices are built sparsely and
ranks are taken by Gaussian elimination with a fixed pivot order (first
nonzero by ascending row within each column vector), so results are
reproducible bit for bit.

Rank packing per characteristic:
  p = 2   columns as Python int bitsets
  p = 3   columns as two bitplanes (value 1 -> lo bit, value 2 -> hi bit)
  p >= 5  dense numpy Gaussian elimination of its own (`_rank_dense`)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EulerCharError
from .groupspec import ConcreteGroup
from .resolution import FpModule, resolve_memory_budget


@dataclass
class SparseMatrix:
    """Column-major sparse integer matrix; cols[j] maps row -> entry."""

    nrows: int
    ncols: int
    cols: list

    @classmethod
    def from_dense(cls, rows) -> "SparseMatrix":
        arr = [list(r) for r in rows]
        nrows = len(arr)
        ncols = len(arr[0]) if nrows else 0
        cols = [
            {i: arr[i][j] for i in range(nrows) if arr[i][j]} for j in range(ncols)
        ]
        return cls(nrows, ncols, cols)


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


def rank_mod_p(matrix: SparseMatrix, p: int) -> int:
    """Rank of a sparse integer matrix over F_p."""
    if p == 2:
        cols = []
        for col in matrix.cols:
            bits = 0
            for r, value in col.items():
                if int(value) % 2:
                    bits |= 1 << int(r)
            cols.append(bits)
        return _rank_gf2(cols)
    if p == 3:
        cols = []
        for col in matrix.cols:
            lo = hi = 0
            for r, value in col.items():
                v = int(value) % 3
                if v == 1:
                    lo |= 1 << int(r)
                elif v == 2:
                    hi |= 1 << int(r)
            cols.append((lo, hi))
        return _rank_gf3(cols)
    # dense fallback; rows of the eliminated array are the matrix columns
    dense = np.zeros((matrix.ncols, matrix.nrows), dtype=np.int64)
    for j, col in enumerate(matrix.cols):
        for r, value in col.items():
            dense[j, r] = value % p
    return _rank_dense(dense, p)


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


def coboundary_matrix(group: ConcreteGroup, module: FpModule, n: int) -> SparseMatrix:
    """Matrix of d^n : C^n -> C^(n+1) in the delta-function bases."""
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    p = module.p
    order = group.order
    dim = module.dim
    mats = module.matrices.astype(np.int64)  # stored compact; entries are added and subtracted below
    if n == 0:
        cols = []
        for j in range(dim):
            col: dict[int, int] = {}
            for g in range(order):
                base = g * dim
                for i in range(dim):
                    value = int(mats[g, i, j] - (1 if i == j else 0)) % p
                    if value:
                        col[base + i] = value
            cols.append(col)
        return SparseMatrix(order * dim, dim, cols)

    inv = group.inv
    mul = group.mul
    powers = [order**e for e in range(n + 2)]
    ncols = powers[n] * dim
    nrows = powers[n + 1] * dim
    cols = []
    for t_index in range(powers[n]):
        # decode the source tuple, most significant digit first
        t = []
        rem = t_index
        for e in range(n - 1, -1, -1):
            t.append(rem // powers[e])
            rem %= powers[e]
        for j in range(dim):
            col: dict[int, int] = {}

            def add(row: int, value: int) -> None:
                value %= p
                if not value:
                    col.pop(row, None)
                    return
                col[row] = value

            # g . f(g_2, ..., g_{n+1})
            for g in range(order):
                w_index = g * powers[n] + t_index
                base = w_index * dim
                for i in range(dim):
                    value = int(mats[g, i, j])
                    if value:
                        add(base + i, col.get(base + i, 0) + value)
            # face maps merging adjacent arguments
            for pos in range(1, n + 1):
                sign = -1 if pos % 2 else 1
                target = t[pos - 1]
                prefix = 0
                for e in range(pos - 1):
                    prefix = prefix * order + t[e]
                suffix = 0
                for e in range(pos, n):
                    suffix = suffix * order + t[e]
                suffix_width = powers[n - pos]
                for x in range(order):
                    y = int(mul[inv[x], target])
                    w_index = ((prefix * order + x) * order + y) * suffix_width + suffix
                    row = w_index * dim + j
                    add(row, col.get(row, 0) + sign)
            # (-1)^{n+1} f(g_1, ..., g_n)
            sign = -1 if (n + 1) % 2 else 1
            for g in range(order):
                w_index = t_index * order + g
                row = w_index * dim + j
                add(row, col.get(row, 0) + sign)
            cols.append(col)
    return SparseMatrix(nrows, ncols, cols)


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
    bits = 1 if p == 2 else 2 if p == 3 else 64
    total_bits = 0
    for deg in range(max(0, n - 1), n + 1):
        in_dim = order**deg * dim
        out_dim = order ** (deg + 1) * dim
        total_bits += in_dim * out_dim * bits
    return total_bits // 8 * 2  # packed columns plus elimination copies


def cochain_cohomology_dim(
    group: ConcreteGroup,
    module: FpModule,
    n: int,
    memory_budget: int | None = None,
) -> RankResult:
    """dim H^n(G; M) by exact rank computation on the bar cochain complex."""
    module.check_against(group)
    budget = resolve_memory_budget(memory_budget)
    needed = _estimate_bytes(group.order, module.dim, n, module.p)
    if needed > budget:
        raise BudgetError(needed, budget)
    p = module.p
    order = group.order
    dim = module.dim
    if n == 0:
        rank_prev = 0
        dims = (0, dim, order * dim)
    else:
        rank_prev = rank_mod_p(coboundary_matrix(group, module, n - 1), p)
        dims = (order ** (n - 1) * dim, order**n * dim, order ** (n + 1) * dim)
    rank_here = rank_mod_p(coboundary_matrix(group, module, n), p)
    return RankResult(n, dims, rank_prev, rank_here)


def fixed_space_dim(group: ConcreteGroup, module: FpModule) -> int:
    """dim M^G, computed independently by solving (action[g] - 1)x = 0."""
    dim = module.dim
    stacked: list[list[int]] = []
    eye = np.eye(dim, dtype=np.int64)
    for g in range(group.order):
        stacked.extend(((module.matrices[g] - eye) % module.p).tolist())
    return dim - rank_mod_p(SparseMatrix.from_dense(stacked), module.p)
