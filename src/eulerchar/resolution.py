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
call whose modules are all trivial needs neither d_{n+1} nor d_n, but
only while d_n is not built: Z^n = Hom_G(K_{n-1}, M) with
K_{n-1} = im d_n = ker d_{n-1}, and G acts trivially on M, so

    h^n = dim M * (dim K_{n-1} - rank I K_{n-1}) - rank delta^n,

where rank delta^n is the rank of phi -> phi|K_{n-1} on F_{n-1}, read
off the rows of K_{n-1} in the same way.  Once d_n is built (say for a
twisted module in the same call) a trivial module reads K_n like any
other and no I K_{n-1} is formed.  No F_pG-generators are chosen
for the kernel the top degree is read from: that choice is only made for
a kernel that a later d_k is built from.

A trivial module over a p-group needs no rank of a Hom map at all.  The
resolution is minimal (below), so K_k lies in I F_k for every k: K_0 is
I F_0, and d_k maps F_k / I F_k isomorphically onto K_{k-1} / I K_{k-1}.
G acts trivially on M, so every element of I acts on M as 0; every
delta^n and every restriction to K_k vanish, and h^n = dim M * r_n
(Benson, Representations and Cohomology II, 2.4).  The top degree is
dim M * (dim K_{n-1} - rank I K_{n-1}) while d_n is not built, else
dim M * r_n.

A vector of F_n is an (r_n, |G|) array: entry [i, g] is the coefficient
of g e_i, and h acts by h (g e_i) = (hg) e_i.  d_n sends the generator
e_j of F_n to images[n-1][j], an (r_{n-1}, |G|) array.  To build d_{n+1}
the engine takes the kernel K of d_n (of the augmentation for n = 0) and
picks F_pG-generators of it:

  p-groups      a basis of K modulo I K, I the augmentation ideal, so the
                resolution is minimal and r_n = h^n(G; F_p); in degree
                one these are read off a Burnside basis of G (below)
  other groups  kernel basis vectors taken greedily until their G-orbits
                span K; in degree one these are read off the group's
                generating set (below)

Every kernel K_k = ker d_k is kept as F_p-basis rows together with its
free columns, the columns where that basis is the identity: the
pivotless columns of an elimination, or for K_1 the edges off a spanning
forest (below).  The kernel steps work in these dim K_k coordinates.  A
vector v of K_k is zero exactly when v[free] is zero, and the
coordinates of s k_i are (s k_i)[free], gathered from k_i through the
translation table.  So:

  next kernel   for k >= 2, K_k is the nullspace of only the rows of d_k
                at the free columns of K_{k-1}: d_k maps into K_{k-1}, so
                they have the same kernel, reduced echelon form and basis.
                They are dim K_{k-1} rows of full rank, the elimination
                stops at its last pivot, and d_k itself is never built
  I K           spanned by the coordinates (s k_i)[free] - e_i of
                (s - 1) k_i for s in `degree_one`, |S| dim K x dim K
  generators    row i of K is e_i, and the choice below is made there

Both choices of generators are greedy over the kernel basis rows: a row
is chosen when it is not in the span of what the earlier rows
contribute.  For p-groups the residue of K modulo the echelon form of
I K is the identity with row pivots[t] reduced by echelon row t, and the
chosen rows are its row rank profile, the pivot columns of one
dim K x dim K elimination of its transpose.  For other groups the span
is kept reduced (each row 1 at its own pivot column and 0 at the
others) and grown one orbit at a time: the |G| translates of a chosen
row are reduced against it, only that residual block is eliminated, and
its new pivot columns are cleared from the old rows.  e_i lies in that
span exactly when i is a pivot column whose reduced row is e_i, so each
row's membership is read off the span without a product.

Degree one needs no elimination.  The rows of K_0 are e_g - e_0, one
per g != 1.  Outside p-groups the orbit of e_s - e_0 spans F_pG (s - 1),
and g - 1 lies in the F_pG-span of {s - 1 : s in S} exactly when g is in
the subgroup <S>.  So the greedy choice keeps e_g - e_0 exactly when g is
outside the subgroup of the elements kept before it, which is the rule
of `ConcreteGroup.generating_set`, in the same index order.  For a
p-group the rows are taken modulo I K_0 = I^2, and g - 1 + I^2 -> g Phi(G)
is an isomorphism of F_p-spaces I / I^2 -> G / Phi(G), where
Phi(G) = G^p [G, G] is the Frattini subgroup.  So the row rank profile
keeps e_g - e_0 exactly when g is outside <the elements kept before it>
Phi(G), which is the rule of `ConcreteGroup.burnside_basis`, and
r_1 = d(G) (Burnside's basis theorem); the generating set can be longer,
for instance when an element of Phi comes first in the labeling.  Either
way `extend` writes down e_s - e_0 for s in `Resolution.degree_one` and
never forms K_0 or eliminates anything (a generating set gives d_1, the
start of the resolution; Gruenberg, Resolutions by relations, 1960).
The degree-one generators are e_{g_j} - e_0, so column (j, h) of d_1 is
the edge h -> h g_j of the Cayley graph of the g_j: +1 at its head h g_j
and -1 at its tail h.  The column matroid of a signed incidence matrix
is the graphic matroid over every field, so the pivot columns of d_1 are
the edges that join two components when the columns are walked in order
(a spanning forest), and K_1, the relation module of the presentation,
is the cycle space of the graph.  With path[v] the signed forest path
from the root of v's component to v, a free column f gives the row
e_f - path[head f] + path[tail f]: the one kernel vector with 1 at f and
0 at the other free columns, which is the row the elimination of d_1
would give.  d_1 is never built as a matrix.

The Hom differential delta^n : M^{r_{n-1}} -> M^{r_n} has the block
sum_g c_g rho(g) at (j, i), where d_n(e_j) = sum_{i,g} c_g g e_i; the
same blocks on the rows v_j of a kernel K_k in place of the d_{k+1}(e_j)
give the matrix of phi -> phi|K_k.  `cohomology_dims` reads all the
modules of one field in one pass: one homomorphism check of their
actions (`check_against`), then per degree one product of the
coefficients c_g with all their actions side by side, and one
elimination of the block-diagonal of their matrices.  The reduced
echelon form of a block-diagonal matrix is the block-diagonal of the
blocks' forms, so each module's rank is the number of pivots in its
columns, and `echelon_mod_p` stays the only eliminator.

Matrices are dense int64 arrays reduced mod p; only module actions are
stored compact (`FpModule`).  Every product of two of them goes through
`_mul_mod_p`, which is exact for every p that `echelon_mod_p` accepts:
float64 (BLAS) while the sums fit the 53-bit mantissa, else int64 on
16-bit halves of the right factor.  Every gather of d_k's rows, kernel
basis, forest-path, module-check, Hom, I K, orbit and generator-selection
matrix is checked against the memory budget before it is allocated, at
its exact byte size or through a larger matrix of the same step reserved
first.  Matrix sizes grow like |G|^2 r^2 instead of the bar complex's
|G|^n, so the whole package uses this engine; the bar complex in
`oracle` is kept as an independent reference.

The engine takes a realized `ConcreteGroup` and `FpModule`s, never a
spec: the entry from a group spec (which field needs a resolution, which
group to realize, the character modules of a semidirect spec and the
check against the closed forms) lives in `swan`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

import numpy as np

from .errors import BudgetError, EulerCharError
from .groupspec import ConcreteGroup
from .series import is_prime, prime_factors

DEFAULT_MEMORY_BUDGET = 2 * 1024**3


class FpModule:
    """An F_p[G]-module given by one invertible matrix per group element.

    p must be prime; any other p is refused with `EulerCharError`.

    A module lives as long as the query that supplied it, so it is stored
    compact.  The entries, reduced mod p, are kept as the bytes of the
    smallest unsigned type that holds p - 1 (one byte for p <= 256), and
    `matrices` is a read-only (order, dim, dim) array over those bytes.  The
    attributes are `__slots__` (p, order, dim, the bytes and `_trivial`,
    the answer of `is_trivial` once a query has asked for it): no
    per-object `__dict__`, and a misspelt attribute is refused instead of
    added.  `check_against` and `Resolution._hom_ranks` multiply through
    `_mul_mod_p`, and `oracle.coboundary_matrix` sums the entries it reads
    in int64.
    """

    __slots__ = ("p", "order", "dim", "_entries", "_trivial")

    def __init__(self, p: int, matrices):
        if not is_prime(p):
            raise EulerCharError(f"module coefficients need a prime field, got p = {p}")
        matrices = (np.asarray(matrices, dtype=np.int64) % p).astype(np.min_scalar_type(p - 1))
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise EulerCharError(f"module action must have shape (order, dim, dim), got {matrices.shape}")
        if matrices.shape[0] < 1:
            raise EulerCharError("module action must give a matrix for at least the identity element")
        self.p = p
        self._entries = matrices.tobytes()
        self._trivial: bool | None = None
        self.order = matrices.shape[0]
        self.dim = matrices.shape[1]
        if self.dim < 1:
            raise EulerCharError("module dimension must be >= 1")
        if not np.array_equal(matrices[0], np.eye(self.dim, dtype=np.int64)):
            raise EulerCharError("identity element must act as the identity matrix")

    @property
    def matrices(self) -> np.ndarray:
        """The action: matrices[g] is the matrix of g, read-only."""
        entries = np.frombuffer(self._entries, np.min_scalar_type(self.p - 1))
        return entries.reshape(self.order, self.dim, self.dim)

    @property
    def is_trivial(self) -> bool:
        """Whether every element acts as the identity; computed on first use, then kept."""
        if self._trivial is None:
            self._trivial = bool((self.matrices == np.eye(self.dim, dtype=np.int64)).all())
        return self._trivial

    @classmethod
    def trivial(cls, p: int, order: int) -> "FpModule":
        mats = np.broadcast_to(np.eye(1, dtype=np.int64), (order, 1, 1)).copy()
        return cls(p, mats)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _mul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, exact; a and b hold residues in [0, p).

    With k the inner dimension, every partial sum is at most k (p - 1)^2.
    Below 2^53 float64 holds each one exactly, so the product runs in BLAS.
    Otherwise b is split into 16-bit halves and the inner dimension into
    chunks of k with k (p - 1) (2^16 - 1) below 2^63, so every p with
    p (p - 1) < 2^63 (the ones `echelon_mod_p` accepts, all below 2^32) is
    exact.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 2**53:
        # the float sums are exact integers, and int64 % is faster than float %
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    b = b.astype(np.int64)
    step = _INT64_MAX // ((p - 1) * 0xFFFF)
    out = 0
    for start in range(0, k, step):
        x, y = a[..., start : start + step], b[..., start : start + step, :]
        out = (out + x @ (y & 0xFFFF) % p + (x @ (y >> 16) % p << 16)) % p
    return out


def _actions(modules) -> np.ndarray:
    """actions[g, m]: the matrix of g on modules[m], as int64, padded with zeros to the largest dimension.

    A product or a Hom block of padded matrices is the padded one: the
    padding adds no nonzero entry, and so no pivot to an elimination.
    """
    dim = max(module.dim for module in modules)
    actions = np.zeros((modules[0].order, len(modules), dim, dim), dtype=np.int64)
    for m, module in enumerate(modules):
        actions[:, m, : module.dim, : module.dim] = module.matrices
    return actions


def check_against(group: ConcreteGroup, modules, reserve=None) -> None:
    """Verify that every action is a homomorphism: rho(g) rho(h) = rho(gh).

    Checked for g in the group's generating set and every h; the g that
    pass are closed under products, so this covers every pair.  A module
    on which every element acts as the identity is one
    (`FpModule.is_trivial` reads every matrix).  The others share one
    product of their `_actions`, and the first of them that fails names
    its first failing generator.  `reserve(rows, cols)`, if given, is
    called with the shape of the product, no smaller than the actions,
    before either is allocated.
    """
    for module in modules:
        if module.order != group.order:
            raise EulerCharError(f"module is over a group of order {module.order}, got {group.order}")
        if module.p != modules[0].p:
            raise EulerCharError(f"modules over different fields: F_{modules[0].p} and F_{module.p}")
    twisted = [module for module in modules if not module.is_trivial]
    if not twisted:
        return
    gens, dim = group.generating_set, max(module.dim for module in twisted)
    if reserve is not None:
        reserve(len(gens) * group.order * len(twisted), dim * dim)
    actions = _actions(twisted)
    # prod[i, h, m] = actions[gens[i], m] @ actions[h, m]
    prod = _mul_mod_p(actions[gens, None], actions, twisted[0].p)
    wrong = (prod != actions[group.mul[gens]]).any(axis=(1, 3, 4))  # (generator, module)
    if wrong.any():
        first = wrong[:, int(wrong.any(axis=0).argmax())]
        raise EulerCharError(f"action is not multiplicative at element {gens[int(first.argmax())]}")


def echelon_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and its pivot columns.

    `matrix` is an int64 array and is not changed.  Returns a new int64
    array of its shape: the first len(pivots) rows are the reduced echelon
    form, one row per pivot in pivot order, and the other rows are zero.
    The rank is len(pivots).  The reduced echelon form of a matrix is
    unique, so the result does not depend on which row supplies each pivot:
    it is the same bit for bit as that of any other Gauss-Jordan order.

    Rows stay in place.  Columns are taken in order; the pivot row of a
    column is the first row not yet taken that is nonzero there, and it
    clears that column from every other row.  The taken rows are gathered
    in pivot order once, at the end.

    p = 2 works on a uint8 copy and adds rows by XOR.  For odd p the work
    copy is int64 and mod p is taken lazily: a step reduces only the pivot
    column and the pivot row, and changes every other entry by one product
    of two residues, at most (p - 1)^2.  After k steps every entry is at
    most p - 1 + k (p - 1)^2 in absolute value, and the whole copy is
    reduced before that bound could pass 2^63 - 1, so entries never wrap
    for any p with p (p - 1) < 2^63 (a full reduction every two steps at
    p = 2^31 - 1).  The pivot rows are reduced once more at the end if any
    row changed after the last full reduction.  A larger p is refused.
    """
    if p * (p - 1) > _INT64_MAX:
        raise EulerCharError(f"F_p elimination in int64 needs p (p - 1) < 2^63, got p = {p}")
    nrows = matrix.shape[0]
    if p == 2:
        a = matrix.astype(np.uint8)  # the cast wraps mod 256, which keeps the parity
        a &= 1
    else:
        a = matrix % p
    # taken[r] = p - 1 once row r holds a pivot: every entry of a reduced
    # column is at most p - 1, so column > taken marks the free nonzero rows
    taken = np.zeros(nrows, dtype=a.dtype)
    step, bound = (p - 1) ** 2, p - 1  # bound >= |every entry of a|
    pivots: list[int] = []
    rows: list[int] = []
    # row operations never make a zero column nonzero
    for col in a.any(axis=0).nonzero()[0].tolist():
        if len(rows) == nrows:
            break
        if p == 2:
            pick = a[:, col] > taken
            r = int(pick.argmax())
            if not pick[r]:
                continue
            a[r, col] = 0  # leave the pivot row out of the rows it clears
            others = a[:, col].nonzero()[0]
            a[r, col] = 1
            if others.size:
                a[others] ^= a[r]
        else:
            column = a[:, col] % p
            pick = column > taken
            r = int(pick.argmax())
            if not pick[r]:
                continue
            pivot_row = a[r] % p
            pivot_row *= pow(int(column[r]), -1, p)
            pivot_row %= p
            a[r] = pivot_row
            column[r] = 0
            others = column.nonzero()[0]
            if others.size:
                if bound > _INT64_MAX - step:
                    a %= p
                    bound = p - 1
                a[others] -= np.multiply.outer(column[others], pivot_row)
                bound += step
        taken[r] = p - 1
        pivots.append(col)
        rows.append(r)
    rank = len(rows)
    if rows != list(range(rank)):
        a[:rank] = a[rows]
    if p == 2:
        reduced = np.zeros(matrix.shape, dtype=np.int64)
        reduced[:rank] = a[:rank]
        return reduced, pivots
    if bound > p - 1:  # a row changed since the last full reduction
        a[:rank] %= p
    a[rank:] = 0
    return a, pivots


def _nullspace_mod_p(matrix: np.ndarray, p: int, reserve=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows spanning {x : matrix @ x = 0} over F_p, one per free column, and the free columns.

    basis[:, free] is the identity.  `reserve(rows, cols)`, if given, is
    called with the basis shape before the basis is allocated.
    """
    reduced, pivots = echelon_mod_p(matrix, p)
    ncols = matrix.shape[1]
    if reserve is not None:
        reserve(ncols - len(pivots), ncols)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, pivots] = (-reduced[: len(pivots), free].T) % p
    return basis, free


class Resolution:
    """A free F_pG-resolution of F_p, extended on demand; lives for one call."""

    def __init__(self, group: ConcreteGroup, p: int, memory_budget: int | None = None):
        if not is_prime(p):
            raise EulerCharError(f"a resolution needs a prime field F_p, got p = {p}")
        self.group = group
        self.p = p
        self.budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        order = group.order
        # translate[h, x] = h^{-1} x, so (h v)[..., x] = v[..., translate[h, x]]
        self.translate = group.mul[group.inv]
        self.minimal = set(prime_factors(order)) <= {p}  # a p-group
        self.ranks = [1]  # r_0, r_1, ...
        self.images: list[np.ndarray] = []  # images[n-1][j] = d_n(e_j)
        self.kernels: dict[int, np.ndarray] = {}  # kernels[k] = K_k = ker d_k, an F_p-basis as rows
        self.free: dict[int, np.ndarray] = {}  # free[k]: the columns where kernels[k] is the identity

    def _reserve(self, rows: int, cols: int) -> None:
        needed = rows * cols * np.dtype(np.int64).itemsize
        if needed > self.budget:
            raise BudgetError(needed, self.budget)

    def _sources(self, free: np.ndarray, translate: np.ndarray) -> np.ndarray:
        """sources[s, a]: the entry of a vector v of F_n that s v holds at column free[a].

        `translate` holds the rows of `self.translate` of some elements s, and
        sources one row per element.  (s v)[i, x] = v[i, s^{-1} x], so for v
        in a kernel with free columns `free` the coordinates of s v are
        v.reshape(-1)[sources[s]].
        """
        x = free % self.group.order
        return translate[:, x] + (free - x)

    def _boundary_rows(self, k: int) -> np.ndarray:
        """The rows of d_k, k >= 2, at the free columns of K_{k-1}; columns (j, h) of F_k.

        d_k maps into K_{k-1}, whose vectors vanish exactly when they vanish
        at its free columns, so these dim K_{k-1} rows have the kernel of
        d_k, and full rank.  Only they are gathered: row a, column (j, h) is
        (h d_k(e_j))[free[a]].  K_{k-1} exists: d_k was generated from it.
        """
        free, rank, order = self.free[k - 1], self.ranks[k], self.group.order
        self._reserve(len(free), rank * order)
        sources = self._sources(free, self.translate).T  # (a, h)
        images = self.images[k - 1].reshape(rank, self.ranks[k - 1] * order)
        return images[np.arange(rank)[:, None], sources[:, None, :]].reshape(len(free), rank * order)

    @cached_property
    def degree_one(self) -> list[int]:
        """The elements g_j of d_1(e_j) = e_{g_j} - e_0 (module docstring)."""
        return self.group.burnside_basis(self.p) if self.minimal else self.group.generating_set

    def _ideal_span(self, kernel: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Echelon form of I K in the coordinates of K, spanned by (s - 1) k for s in `degree_one` and k in K.

        Any set S generating G will do: (st - 1) k = (s - 1)(t - 1) k +
        (t - 1) k + (s - 1) k, and (t - 1) k lies in K.  `degree_one` is the
        shortest such set the engine has, d(G) elements for a p-group, and
        the reduced echelon form is unique, so the choice changes nothing else.
        The coordinates of (s - 1) k_i are (s k_i)[free] - e_i.
        """
        dim, gens = len(kernel), self.degree_one
        self._reserve(len(gens) * dim, dim)
        # ideal[s, i, a] = (s k_i)[free[a]], less 1 on the diagonal i = a
        ideal = kernel[np.arange(dim)[:, None], self._sources(free, self.translate[gens])[:, None, :]]
        ideal.reshape(len(gens), dim * dim)[:, :: dim + 1] -= 1
        return echelon_mod_p(ideal.reshape(len(gens) * dim, dim), self.p)

    def _generators(self, kernel: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Rows of `kernel` that generate its span as an F_pG-module.

        `free` are the columns where `kernel` is the identity; the choice is
        made in those coordinates (module docstring).  `extend` skips it in
        degree one, where its choice from K_0 is known in advance.
        """
        p = self.p
        dim = len(kernel)
        if dim == 0:
            return kernel
        if self.minimal:
            # I K once; then the chosen rows are the row rank profile of K mod I K,
            # the identity with row pivots[t] reduced by the echelon row t
            span, pivots = self._ideal_span(kernel, free)
            self._reserve(dim, dim)
            residue = np.eye(dim, dtype=np.int64)
            residue[pivots] -= span[: len(pivots)]
            chosen = echelon_mod_p(residue.T, p)[1]
            spanned = len(pivots) + len(chosen)
        else:
            order = self.group.order
            # the sources and each orbit are order x dim, the span at most dim x dim
            self._reserve(order, dim)
            self._reserve(dim, dim)
            sources = self._sources(free, self.translate)
            span, pivots = np.zeros((0, dim), dtype=np.int64), []
            chosen = []
            for index in range(dim):
                if len(pivots) == dim:
                    break
                # e_index is in the span exactly when it is a pivot whose reduced row is e_index
                if index in pivots and np.count_nonzero(span[pivots.index(index)]) == 1:
                    continue
                chosen.append(index)
                # reduce the orbit against the span and echelon only what is left
                orbit = kernel[index, sources]
                added, new = echelon_mod_p(orbit - _mul_mod_p(orbit[:, pivots], span, p), p)
                added = added[: len(new)]
                span = np.concatenate([(span - _mul_mod_p(span[:, new], added, p)) % p, added])
                pivots = pivots + new
            spanned = len(pivots)
        if spanned != dim:
            raise EulerCharError("resolution generators do not span the kernel")
        return kernel[chosen]

    def _cycle_space(self) -> tuple[np.ndarray, np.ndarray]:
        """K_1 = ker d_1 read off the Cayley graph of the degree-one generators, and its free columns.

        Column (j, h) of d_1 is the edge h -> h g_j (module docstring).  The
        columns that join two components, taken in column order, form a
        spanning forest; path[v] is the signed forest path from the root of
        v's component to v, so d_1 path[v] = e_v - e_root.  Each other
        column f gives the row e_f - path[head f] + path[tail f].
        """
        order = self.group.order
        gens = np.array(self.degree_one, dtype=np.int64)
        cols = len(gens) * order
        tails = np.tile(np.arange(order), len(gens))
        heads = self.group.mul[:, gens].T.reshape(-1)
        # components by quick-find: label[v] names v's component, members[c] lists c
        label, members = list(range(order)), [[v] for v in range(order)]
        free: list[int] = []
        edges: list[list[tuple[int, int, int]]] = [[] for _ in range(order)]  # (neighbour, column, sign)
        for col, tail, head in zip(range(cols), tails.tolist(), heads.tolist()):
            a, b = label[tail], label[head]
            if a == b:
                free.append(col)
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for v in members[b]:
                label[v] = a
            members[a] += members[b]
            edges[tail].append((head, col, 1))
            edges[head].append((tail, col, -1))
        self._reserve(order, cols)
        path = np.zeros((order, cols), dtype=np.int64)
        seen = [False] * order
        for start in range(order):
            if seen[start]:
                continue
            seen[start], stack = True, [start]
            while stack:
                u = stack.pop()
                for v, col, sign in edges[u]:
                    if not seen[v]:
                        seen[v] = True
                        path[v] = path[u]
                        path[v, col] = sign
                        stack.append(v)
        self._reserve(len(free), cols)
        kernel = path[tails[free]]
        kernel -= path[heads[free]]
        kernel[np.arange(len(free)), free] = 1
        # a column on both paths cancels, so every entry is -1, 0 or 1
        kernel[kernel < 0] += self.p
        return kernel, np.array(free, dtype=np.int64)

    def _kernel(self, k: int) -> np.ndarray:
        """K_k = ker d_k, its free columns kept in free[k]; d_k must already be built (d_1 only as images[0])."""
        if k not in self.kernels:
            if k == 0:
                self._reserve(1, self.group.order)
                augmentation = np.ones((1, self.group.order), dtype=np.int64)
                kernel, free = _nullspace_mod_p(augmentation, self.p, self._reserve)
            elif k == 1:
                kernel, free = self._cycle_space()
            else:
                kernel, free = _nullspace_mod_p(self._boundary_rows(k), self.p, self._reserve)
            self.kernels[k], self.free[k] = kernel, free
        return self.kernels[k]

    def extend(self, n: int) -> None:
        """Build d_1 .. d_n.

        d_{k+1} is generated by `_generators(K_k)`, except in degree one:
        there the choice from K_0 is e_s - e_0 for s in `degree_one`
        (module docstring), so those rows are written down and K_0 is never
        formed.
        """
        order = self.group.order
        while len(self.images) < n:
            top = len(self.images)
            if top == 0:
                elements = self.degree_one
                self._reserve(len(elements), order)
                gens = np.zeros((len(elements), order), dtype=np.int64)
                gens[np.arange(len(elements)), elements] = 1
                gens[:, 0] = self.p - 1
            else:
                gens = self._generators(self._kernel(top), self.free[top])
            self.ranks.append(len(gens))
            self.images.append(gens.reshape(len(gens), self.ranks[top], order))

    def _hom_ranks(self, actions: np.ndarray, vectors: np.ndarray) -> list[int]:
        """rank of phi -> (phi(v_j))_j on Hom_G(F_{n-1}, M) for each module M, v_j = vectors[j] in F_{n-1}.

        On vectors = images[n-1] this is delta^n; on the rows of K_{n-1} it
        has the same kernel, the maps vanishing on im d_n = K_{n-1}.
        actions[g, m] is the matrix of g on module m (`_actions`).
        One product forms every block, and one elimination of the
        block-diagonal of the modules' matrices ranks them all: its reduced
        echelon form is the block-diagonal of theirs, so the pivots in a
        module's columns count its rank.
        """
        order, modules, dim = actions.shape[:3]
        count, rank = vectors.shape[:2]
        self._reserve(modules * count * dim, modules * rank * dim)  # the block-diagonal, no smaller than the blocks
        # blocks[j, i, m, a, b] = sum_g vectors[j, i, g] rho_m(g)[a, b]
        blocks = _mul_mod_p(vectors.reshape(-1, order), actions.reshape(order, -1), self.p)
        # row (m, j, a), column (m, i, b): module m's block (j, i), entry (a, b)
        matrix = np.zeros((modules, count, dim, modules, rank, dim), dtype=np.int64)
        diagonal = np.arange(modules)
        matrix[diagonal, :, :, diagonal] = blocks.reshape(count, rank, modules, dim, dim).transpose(2, 0, 3, 1, 4)
        pivots = echelon_mod_p(matrix.reshape(modules * count * dim, modules * rank * dim), self.p)[1]
        ends = [bisect_left(pivots, rank * dim * m) for m in range(1, modules + 1)]
        return [end - start for start, end in zip([0, *ends], ends)]

    def cohomology_dims(self, modules, n_max: int) -> list[tuple[int, ...]]:
        """dim H^n(G; M) for n = 0 .. n_max, one tuple per module in `modules`, in their order.

        Never builds d_{n_max+1}.  Trivial modules only, while d_{n_max} does
        not exist yet, need only d_1 .. d_{n_max-1}: the top degree is
        dim M * (dim K - rank I K) - rank delta^{n_max} with K = K_{n_max-1},
        and no generators are chosen for K.  Otherwise (a twisted module, or
        d_{n_max} already built) d_1 .. d_{n_max} are built and
        Z^{n_max} = dim M * r_{n_max} - rank(phi -> phi|K) with K = K_{n_max},
        and no I K is formed.  Both ranks on K are read off its rows (module
        docstring).  All the modules are checked in one `check_against`, and
        each degree and the rank on K take one `_hom_ranks` call for all of
        them, except that a trivial module over a p-group takes no part: on
        the minimal resolution its every delta^n and its rank on K are 0.
        """
        modules = list(modules)
        if not modules:
            raise EulerCharError("empty module list")
        for module in modules:
            if module.p != self.p:
                raise EulerCharError(f"module is over F_{module.p}, resolution over F_{self.p}")
        check_against(self.group, modules, self._reserve)
        short = all(module.is_trivial for module in modules) and len(self.images) < n_max
        last = n_max - 1 if short else n_max  # d_1 .. d_last are built and read; last >= 0
        self.extend(last)
        # K_k lies in I F_k: every delta^n and the restriction to K of a trivial module vanish
        ranked = [module for module in modules if not (module.is_trivial and self.minimal)]
        if ranked:
            dim = max(module.dim for module in ranked)
            self._reserve(self.group.order * len(ranked), dim * dim)
            actions = _actions(ranked)
            # ranks[n - 1][i] = rank delta^n of ranked[i], and ranks[last][i] its rank on K
            ranks = [self._hom_ranks(actions, image) for image in self.images[:last]]
            kernel = self._kernel(last)
            ranks.append(self._hom_ranks(actions, kernel.reshape(len(kernel), self.ranks[last], self.group.order)))
            of_ranked = iter(zip(*ranks))
        if short:
            # Z^{n_max} = Hom_G(K, M) = Hom(K / I K, M)
            kernel = self._kernel(last)
            coinvariants = len(kernel) - len(self._ideal_span(kernel, self.free[last])[1])
        result = []
        for module in modules:
            if module.is_trivial and self.minimal:
                deltas, restricted = [0] * (last + 1), 0
            else:
                *deltas, restricted = next(of_ranked)
                deltas = [0, *deltas]  # deltas[n] = rank delta^n
            if short:
                deltas.append(restricted)
                cocycles = module.dim * coinvariants
            else:
                cocycles = module.dim * self.ranks[n_max] - restricted
            dims = [module.dim * self.ranks[n] - deltas[n + 1] - deltas[n] for n in range(n_max)]
            result.append(tuple(dims + [cocycles - deltas[n_max]]))
        return result
