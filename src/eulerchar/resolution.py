"""Group cohomology from free F_pG-resolutions.

The engine builds a free resolution

    ... -> F_2 -> F_1 -> F_0 = F_pG -> F_p -> 0,    F_n = (F_pG)^{r_n},

degree by degree with exact F_p linear algebra, and reads dim H^n(G; M)
off the complex Hom_G(F_*, M) = M^{r_*}:

    h^n = dim M * r_n - rank delta^{n+1} - rank delta^n.

The top degree is always read off a kernel, and `cohomology_dims` never
builds d_{n+1}.  The n-cocycles are the maps vanishing on
im d_{n+1} = K_n = ker d_n: a map phi on F_n has phi o d_{n+1} = 0
exactly when phi vanishes on K_n, so

    Z^n = dim M * r_n - rank(phi -> phi|K_n),

read off the F_p-basis rows of K_n with the block formula below.  A
trivial module needs neither d_{n+1} nor d_n: Z^n = Hom_G(K_{n-1}, M)
with K_{n-1} = im d_n = ker d_{n-1}, and G acts trivially on M, so

    h^n = dim M * (dim K_{n-1} - rank I K_{n-1}) - rank delta^n,

where rank delta^n is the rank of phi -> phi|K_{n-1} on F_{n-1}, read
off the rows of K_{n-1} in the same way.  No F_pG-generators are chosen
for the kernel the top degree is read from: that choice is only made for
a kernel that a later d_k is built from.

A vector of F_n is an (r_n, |G|) array: entry [i, g] is the coefficient
of g e_i, and h acts by h (g e_i) = (hg) e_i.  d_n sends the generator
e_j of F_n to images[n-1][j], an (r_{n-1}, |G|) array.  To build d_{n+1}
the engine takes the kernel K of d_n (of the augmentation for n = 0) and
picks F_pG-generators of it:

  p-groups      a basis of K modulo I K, I the augmentation ideal, so the
                resolution is minimal and r_n = h^n(G; F_p)
  other groups  kernel basis vectors taken greedily until their G-orbits
                span K

Both choices are greedy over the kernel basis rows: a row is chosen when
it is not in the span of what the earlier rows contribute.  For p-groups
the rows are reduced modulo the echelon form of I K in one step, and the
chosen rows are the row rank profile of the residue, the pivot columns
of one elimination of its transpose.  For other groups the span is kept
in reduced echelon form and grown one orbit at a time: the |G| translates
of a chosen row are reduced against it, only that residual block is
eliminated, and its new pivot columns are cleared from the old rows.

The Hom differential delta^n : M^{r_{n-1}} -> M^{r_n} has the block
sum_g c_g rho(g) at (j, i), where d_n(e_j) = sum_{i,g} c_g g e_i; the
same blocks on the rows v_j of a kernel K_k in place of the d_{k+1}(e_j)
give the matrix of phi -> phi|K_k.

Matrices are dense int64 arrays reduced mod p; only module actions are
stored compact (`FpModule`).  Every d_n, Hom and generator-selection
matrix is checked against the memory budget at its exact byte size
before it is allocated.  Matrix sizes grow like |G|^2 r^2
instead of the bar complex's |G|^n, so the whole package uses this engine;
the bar complex in `oracle` is kept as an independent reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EulerCharError
from .groupspec import ConcreteGroup, CyclicSemidirect, GroupSpec, realize, unit_of_order
from .series import closed_form_series, is_prime, prime_factors

DEFAULT_MEMORY_BUDGET = 2 * 1024**3
MEMORY_BUDGET_ENV = "EULERCHAR_MEMORY_BUDGET"
MAX_ORDER = 64  # largest group the cohomology paths realize


def resolve_memory_budget(budget: int | None = None) -> int:
    """The budget passed in, else a positive integer from the environment, else the default."""
    if budget is not None:
        return budget
    env = os.environ.get(MEMORY_BUDGET_ENV)
    if not env:
        return DEFAULT_MEMORY_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise EulerCharError(f"{MEMORY_BUDGET_ENV} must be a positive number of bytes, got {env!r}")
    return value


class FpModule:
    """An F_p[G]-module given by one invertible matrix per group element.

    `matrices` holds the entries reduced mod p in the smallest unsigned type
    that holds p - 1 (one byte for p <= 256): a module lives as long as the
    query that supplied it.  Products are formed in int64: `check_against`
    and `oracle.coboundary_matrix` widen first, and `_hom_rank`'s tensordot
    with the int64 resolution vectors promotes.
    """

    def __init__(self, p: int, matrices):
        matrices = (np.asarray(matrices, dtype=np.int64) % p).astype(np.min_scalar_type(p - 1))
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise EulerCharError(f"module action must have shape (order, dim, dim), got {matrices.shape}")
        self.p = p
        self.matrices = matrices
        self.order = matrices.shape[0]
        self.dim = matrices.shape[1]
        if self.dim < 1:
            raise EulerCharError("module dimension must be >= 1")
        if not np.array_equal(matrices[0], np.eye(self.dim, dtype=np.int64)):
            raise EulerCharError("identity element must act as the identity matrix")

    @property
    def is_trivial(self) -> bool:
        return bool((self.matrices == np.eye(self.dim, dtype=np.int64)).all())

    def check_against(self, group: ConcreteGroup) -> None:
        """Verify the action is a homomorphism: rho(g) rho(h) = rho(gh).

        Checked for g in the group's generating set and every h; the g that
        pass are closed under products, so this covers every pair.
        """
        if self.order != group.order:
            raise EulerCharError(f"module is over a group of order {self.order}, got {group.order}")
        mats, gens = self.matrices.astype(np.int64), group.generating_set
        prod = np.matmul(mats[gens, None], mats) % self.p  # prod[i, h] = action[gens[i]] @ action[h]
        wrong = (prod != mats[group.mul[gens]]).any(axis=(1, 2, 3))
        if wrong.any():
            raise EulerCharError(f"action is not multiplicative at element {gens[int(np.argmax(wrong))]}")

    @classmethod
    def trivial(cls, p: int, order: int) -> "FpModule":
        mats = np.broadcast_to(np.eye(1, dtype=np.int64), (order, 1, 1)).copy()
        return cls(p, mats)


def semidirect_character_module(spec: GroupSpec, beta: int, group: ConcreteGroup) -> FpModule:
    """One-dimensional module of a realized semidirect group.

    The cyclic complement acts through the canonical element of order m in
    F_p (the same one realize() uses), raised to beta; the vector part acts
    trivially.  Requires m | p - 1.
    """
    if not isinstance(spec, CyclicSemidirect):
        raise EulerCharError("character modules are defined for semidirect specs only")
    zeta = unit_of_order(spec.p, spec.m)
    mats = np.empty((group.order, 1, 1), dtype=np.int64)
    for idx in range(group.order):
        c = idx % spec.m
        mats[idx, 0, 0] = pow(zeta, (beta * c) % spec.m, spec.p)
    module = FpModule(spec.p, mats)
    module.check_against(group)
    return module


def echelon_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and its pivot columns.

    Pivots are taken column by column, first nonzero row first, so the
    result is reproducible bit for bit.  The rank is len(pivots); the
    first len(pivots) rows are the nonzero rows.
    """
    a = matrix % p
    nrows = a.shape[0]
    pivots: list[int] = []
    row = 0
    # row operations never make a zero column nonzero
    for col in np.flatnonzero(a.any(axis=0)).tolist():
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row] = a[row] * inv % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != row]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[row])) % p
        pivots.append(col)
        row += 1
    return a, pivots


def _nullspace_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : matrix @ x = 0} over F_p, one per free column."""
    reduced, pivots = echelon_mod_p(matrix, p)
    ncols = matrix.shape[1]
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, pivots] = (-reduced[: len(pivots), free].T) % p
    return basis


class Resolution:
    """A free F_pG-resolution of F_p, extended on demand; lives for one call."""

    def __init__(self, group: ConcreteGroup, p: int, memory_budget: int | None = None):
        if not is_prime(p):
            raise EulerCharError(f"a resolution needs a prime field F_p, got p = {p}")
        self.group = group
        self.p = p
        self.budget = resolve_memory_budget(memory_budget)
        order = group.order
        # translate[h, x] = h^{-1} x, so (h v)[..., x] = v[..., translate[h, x]]
        self.translate = group.mul[group.inv]
        self.minimal = set(prime_factors(order)) <= {p}  # a p-group
        self.ranks = [1]  # r_0, r_1, ...
        self.images: list[np.ndarray] = []  # images[n-1][j] = d_n(e_j)
        self.kernels: list[np.ndarray] = []  # kernels[k] = K_k = ker d_k, an F_p-basis as rows

    def _reserve(self, rows: int, cols: int) -> None:
        needed = rows * cols * np.dtype(np.int64).itemsize
        if needed > self.budget:
            raise BudgetError(needed, self.budget)

    def _boundary_matrix(self, n: int) -> np.ndarray:
        """d_n as an F_p-matrix: rows (i, x) of F_{n-1}, columns (j, h) of F_n."""
        order = self.group.order
        if n == 0:
            self._reserve(1, order)
            return np.ones((1, order), dtype=np.int64)  # the augmentation
        rows, cols = self.ranks[n - 1] * order, self.ranks[n] * order
        self._reserve(rows, cols)
        # column (j, h) is h d_n(e_j); shape (j, i, h, x) before the transpose
        moved = self.images[n - 1][:, :, self.translate]
        return moved.transpose(1, 3, 0, 2).reshape(rows, cols)

    def _orbit(self, vector: np.ndarray) -> np.ndarray:
        """The |G| translates h v of one vector of F_n, as rows."""
        shaped = vector.reshape(-1, self.group.order)
        return shaped[:, self.translate].transpose(1, 0, 2).reshape(self.group.order, -1)

    def _ideal_span(self, kernel: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Echelon form of I K; I is spanned by s - 1 for s in a generating set of G."""
        dim, length = kernel.shape
        gens = self.group.generating_set
        shaped = kernel.reshape(dim, length // self.group.order, self.group.order)
        self._reserve(dim * len(gens), length)
        moved = shaped[:, :, self.translate[gens]] - shaped[:, :, None]  # (j, i, s, x)
        ideal = moved.transpose(2, 0, 1, 3).reshape(len(gens) * dim, length)
        return echelon_mod_p(ideal, self.p)

    def _generators(self, kernel: np.ndarray) -> np.ndarray:
        """Rows of `kernel` that generate its span as an F_pG-module."""
        p = self.p
        dim, length = kernel.shape
        if dim == 0:
            return kernel
        if self.minimal:
            # I K once; then the chosen rows are the row rank profile of K mod I K
            span, pivots = self._ideal_span(kernel)
            residue = (kernel - kernel[:, pivots] @ span[: len(pivots)]) % p
            self._reserve(length, dim)
            chosen = echelon_mod_p(residue.T, p)[1]
            spanned = len(pivots) + len(chosen)
        else:
            span, pivots = np.zeros((0, length), dtype=np.int64), []
            chosen = []
            for index in range(dim):
                if len(pivots) == dim:
                    break
                vector = kernel[index]
                if not ((vector - vector[pivots] @ span) % p).any():
                    continue  # already in the span
                chosen.append(index)
                # reduce the orbit against the span and echelon only what is left
                orbit = self._orbit(vector)
                self._reserve(len(pivots) + len(orbit), length)
                added, new = echelon_mod_p(orbit - orbit[:, pivots] @ span, p)
                added = added[: len(new)]
                span = np.concatenate([(span - span[:, new] @ added) % p, added])
                pivots = pivots + new
            spanned = len(pivots)
        if spanned != dim:
            raise EulerCharError("resolution generators do not span the kernel")
        return kernel[chosen]

    def _kernel(self, k: int) -> np.ndarray:
        """K_k = ker d_k; d_k must already be built."""
        while len(self.kernels) <= k:
            self.kernels.append(_nullspace_mod_p(self._boundary_matrix(len(self.kernels)), self.p))
        return self.kernels[k]

    def extend(self, n: int) -> None:
        """Build d_1 .. d_n."""
        while len(self.images) < n:
            top = len(self.images)
            gens = self._generators(self._kernel(top))
            self.ranks.append(len(gens))
            self.images.append(gens.reshape(len(gens), self.ranks[top], self.group.order))

    def _hom_rank(self, module: FpModule, vectors: np.ndarray) -> int:
        """rank of phi -> (phi(v_j))_j on Hom_G(F_{n-1}, M), v_j = vectors[j] in F_{n-1}.

        On vectors = images[n-1] this is delta^n; on the rows of K_{n-1} it
        has the same kernel, the maps vanishing on im d_n = K_{n-1}.
        """
        dim = module.dim
        count, rank = vectors.shape[:2]
        rows, cols = count * dim, rank * dim
        self._reserve(rows, cols)
        blocks = np.tensordot(vectors, module.matrices, axes=([2], [0]))  # (j, i, a, b)
        matrix = blocks.transpose(0, 2, 1, 3).reshape(rows, cols)
        return len(echelon_mod_p(matrix, self.p)[1])

    def cohomology_dims(self, module: FpModule, n_max: int) -> tuple[int, ...]:
        """dim H^n(G; M) for n = 0 .. n_max.

        Never builds d_{n_max+1}.  A trivial module, while d_{n_max+1} does not
        exist yet, needs only d_1 .. d_{n_max-1}: its top degree is
        dim M * (dim K - rank I K) - rank delta^{n_max} with K = K_{n_max-1},
        and no generators are chosen for K.  Otherwise d_1 .. d_{n_max} are
        built and Z^{n_max} = dim M * r_{n_max} - rank(phi -> phi|K) with
        K = K_{n_max}.  Both ranks on K are read off its rows (module docstring).
        """
        if module.p != self.p:
            raise EulerCharError(f"module is over F_{module.p}, resolution over F_{self.p}")
        module.check_against(self.group)
        short = module.is_trivial and len(self.images) <= n_max
        last = n_max - 1 if short else n_max  # d_1 .. d_last are built and read
        self.extend(last)
        # deltas[n] = rank delta^n
        deltas = [0] + [self._hom_rank(module, self.images[n - 1]) for n in range(1, last + 1)]
        if last < 0:
            cocycles = module.dim  # K_{-1} is the trivial module F_p
        else:
            kernel = self._kernel(last)
            restricted = self._hom_rank(module, kernel.reshape(len(kernel), self.ranks[last], self.group.order))
            if short:
                deltas.append(restricted)
                # Z^{n_max} = Hom_G(K, M) = Hom(K / I K, M)
                cocycles = module.dim * (len(kernel) - len(self._ideal_span(kernel)[1]))
            else:
                cocycles = module.dim * self.ranks[n_max] - restricted
        dims = [module.dim * self.ranks[n] - deltas[n + 1] - deltas[n] for n in range(n_max)]
        return tuple(dims + [cocycles - deltas[n_max]])


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    closed_form: int
    oracle: int  # read off the free resolution; the name is oracle-check's JSON key

    @property
    def match(self) -> bool:
        return self.closed_form == self.oracle


def verify_series(
    spec: GroupSpec,
    p: int,
    n_max: int,
    memory_budget: int | None = None,
    max_order: int = MAX_ORDER,
) -> list[ComparisonRow]:
    """Closed-form dims against the resolution engine, degree by degree."""
    group = realize(spec, max_order=max_order)
    closed = closed_form_series(spec, p, n_max)
    dims = Resolution(group, p, memory_budget).cohomology_dims(FpModule.trivial(p, group.order), n_max)
    return [ComparisonRow(n, closed.dim(n), dims[n]) for n in range(n_max + 1)]
