"""Determinantal realization of curves: pairs (A, B) and det(Ax + By).

A stratum (e, f) fixes a degree grid a_ij = f_i - e_{k+1-j} (and
b_ij = a_ij + m); pairs of matrices with entries of those degrees map to
curves of class kH + delta*F via the determinant.  Entries whose degree
is negative are identically zero, and that forced vanishing is exactly
what detects reducibility for bad strata.

A pair is one int64 array `coeffs` of shape (2, k, k, L): coeffs[0] is
A, coeffs[1] is B, and slot l of entry (i, j) holds the coefficient of
s^(d - l) t^l, d its grid degree; every slot above d is zero, so an
entry of negative degree is all zeros.  A curve stores each binary form
P_i the same way, as the tuple of its delta + (k - i)m + 1 coefficients
in [0, p), slot l for s^(d - l) t^l; a zero form is all zeros.

Triangularity conventions are with respect to the ANTI-diagonal: in the
SUT pattern, A is supported on and below it (i + j >= k + 1) and B
strictly above it (i + j <= k).  Indices in comments are 1-based to
match the formulas; storage is 0-based.

Forms in |kH + delta*F| come by evaluation and interpolation (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5).  Such a form is
F = sum_i P_i(t) x^i y^(k-i) (s = 1) with deg P_i <= d_i =
delta + (k - i)m.  det(Ax + By) is one: every transversal of the grid
has a-degrees summing to delta, and each of its k - i entries taken from
B adds m.  So is every column of its differential (hbn.differential).
One staircase of R = sum_i (d_i + 1) nodes serves them all: the points
(b : 1) of the x-line for b = 0..k-1, point b at t = 0..d_b, then the
point (1 : 0) at t = 0..d_k, in the order of the coefficient rows.  One
evaluation gives x A(t) + y B(t) at every node (`_node_matrices`), one
batched determinant kernel takes them all, and W, the inverse mod p of
the node-by-monomial table, maps the values to P_0..P_k.

The nodes are unisolvent for these forms.  On y = 1, the j-th divided
difference of F over x = 0..j is a combination of P_j..P_k, so its
t-degree is at most d_j (m >= 0, so d_i falls with i); points 0..j all
carry the nodes t = 0..d_j, which fix it.  The k-th is the leading
coefficient in x, P_k, which (1 : 0) reads at t = 0..d_k.  The Newton
coefficients give F back, so a form that vanishes at every node is 0.
This needs the x-nodes and the t-nodes distinct and j! invertible for
j < k: p >= k and p > delta + k*m; a smaller prime raises
PrimeTooSmallError.  Taking (1 : 0) in place of a point x = k is what
lets p = k work.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import comb, factorial
from typing import Optional

import numpy as np

from hbn.exact.field import PrimeTooSmallError, inv_mod
from hbn.exact.linalg import batch_det_mod
from hbn.exact.poly import _eval_at_nodes, _table_product, interp_nodes, pmul
from hbn.splitting import HirzebruchClass

PATTERNS = ("FULL", "SUT")


@dataclass(frozen=True)
class DegreeGrid:
    """Entry degrees for the two matrices of a stratum."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    m: int
    delta: int

    @property
    def k(self) -> int:
        return len(self.a)


def degree_grid(e, f, m: int) -> DegreeGrid:
    """Grid with a_ij = f_i - e_{k+1-j} and b = a + m (1-based formulas)."""
    e, f = tuple(e), tuple(f)
    k = len(e)
    if len(f) != k:
        raise ValueError("types must have equal length")
    a = tuple(tuple(f[i] - e[k - 1 - j] for j in range(k)) for i in range(k))
    b = tuple(tuple(a[i][j] + m for j in range(k)) for i in range(k))
    return DegreeGrid(a=a, b=b, m=m, delta=sum(f) - sum(e))


def pattern_support(pattern: str, k: int) -> np.ndarray:
    """Bool mask of shape (2, k, k): [0, i, j] (A) and [1, i, j] (B) say
    whether entry (i, j) (0-based) may be nonzero under the pattern."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if pattern == "FULL":
        return np.ones((2, k, k), dtype=bool)
    s = np.add.outer(np.arange(k), np.arange(k))  # i + j, 0-based
    return np.array([s >= k - 1, s <= k - 2])


@dataclass(frozen=True, eq=False)
class MatrixPair:
    """Matrices (A, B) of binary forms as one coefficient array (module doc)."""

    coeffs: np.ndarray
    grid: DegreeGrid
    pattern: str
    p: int

    @property
    def k(self) -> int:
        return self.grid.k

    def __post_init__(self):
        c, k = np.asarray(self.coeffs, dtype=np.int64), self.grid.k
        if c.ndim != 4 or c.shape[:3] != (2, k, k) or c.shape[3] < 1:
            raise ValueError(f"coefficients must have shape (2, {k}, {k}, L >= 1), got {c.shape}")
        if c.min() < 0 or c.max() >= self.p:
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        degrees = np.array((self.grid.a, self.grid.b), dtype=np.int64)[..., None]
        if c[np.arange(c.shape[3]) > degrees].any():
            raise ValueError("a coefficient lies above its entry's grid degree")
        object.__setattr__(self, "coeffs", c)


def _zero_coeffs(grid: DegreeGrid) -> np.ndarray:
    top = max((d for degs in (grid.a, grid.b) for row in degs for d in row), default=0)
    return np.zeros((2, grid.k, grid.k, max(top, 0) + 1), dtype=np.int64)


def _random_nonzero(degree: int, p: int, rng: random.Random) -> list[int]:
    # an allowed entry that samples to the zero form leaves the open
    # locus of the pattern, so redraw (chance 1/p^(deg+1) per attempt)
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        if any(coeffs):
            return coeffs


def sample_pair(grid: DegreeGrid, pattern: str, p: int, rng: random.Random) -> MatrixPair:
    """Pair in the open locus of the pattern: allowed entries are random
    nonzero forms of the grid degree, forced entries stay zero.  Entry
    (i, j) of A is drawn before that of B.  The pattern is FULL or SUT."""
    k = grid.k
    support = pattern_support(pattern, k)
    coeffs = _zero_coeffs(grid)
    for i in range(k):
        for j in range(k):
            for mat, degs in enumerate((grid.a, grid.b)):
                d = degs[i][j]
                if d >= 0 and support[mat, i, j]:
                    coeffs[mat, i, j, : d + 1] = _random_nonzero(d, p, rng)
    return MatrixPair(coeffs, grid, pattern, p)


def split_form(roots: list[int], p: int) -> list[int]:
    """Coefficients (index = power of t) of the monic product of
    (t - root * s) over the given roots."""
    coeffs = [1]
    for r in roots:
        coeffs = pmul(coeffs, [-r % p, 1], p)
    return coeffs


def corner_row_limit(grid: DegreeGrid) -> int:
    """Largest r with b_{k-r,1} >= 0 (0 when the first column is all forced)."""
    k = grid.k
    return max((r for r in range(1, k) if grid.b[k - r - 1][0] >= 0), default=0)


def is_point_obstruction(grid: DegreeGrid) -> Optional[str]:
    """Why the grid has no inductive point (sample_is_point), or None."""
    k = grid.k
    if k < 3:
        return "the inductive point needs k >= 3"
    if grid.a[k - 1][0] < 0 or any(grid.b[k - i - 1][i - 1] < 0 for i in range(2, k)):
        return "grid does not admit the inductive point pattern"
    return None


def sample_is_point(
    grid: DegreeGrid, p: int, rng: random.Random
) -> tuple[MatrixPair, dict]:
    """The special inductive point: fixed split forms on the sub-anti-diagonal
    of B and in the matrix corner, generic entries elsewhere on the support.

    Support (1-based): B_{k-i,i} = F_i for 2 <= i <= k-1 (split, all roots
    distinct); A_{k,1} = G (split, roots distinct from every F_i);
    A_{i,k+1-i} for i <= k-2; A_{i,k} for i <= k-r-1 and i = k-1;
    B_{i,1} for k-r <= i <= k-1; A_{k,j} for 2 <= j <= k.  Everything
    else is identically zero.  That support lies inside SUT's, so the
    pair carries the SUT pattern.
    """
    reason = is_point_obstruction(grid)
    if reason is not None:
        raise ValueError(reason)
    k = grid.k
    r = corner_row_limit(grid)
    f_degrees = {i: grid.b[k - i - 1][i - 1] for i in range(2, k)}
    g_degree = grid.a[k - 1][0]
    total_roots = sum(f_degrees.values()) + g_degree
    if total_roots > p:
        raise PrimeTooSmallError(
            f"the inductive point needs {total_roots} distinct roots, so p >= {total_roots}"
        )
    pool = rng.sample(range(p), total_roots)
    coeffs = _zero_coeffs(grid)
    F_roots = {}
    pos = 0
    for i in range(2, k):
        d = f_degrees[i]
        F_roots[i] = pool[pos : pos + d]
        coeffs[1, k - i - 1, i - 1, : d + 1] = split_form(F_roots[i], p)
        pos += d
    G_roots = pool[pos : pos + g_degree]
    coeffs[0, k - 1, 0, : g_degree + 1] = split_form(G_roots, p)

    def draw(mat, i, j):  # 1-based; an entry of negative degree stays zero
        d = (grid.a, grid.b)[mat][i - 1][j - 1]
        if d >= 0:
            coeffs[mat, i - 1, j - 1, : d + 1] = _random_nonzero(d, p, rng)

    for i in range(1, k - 1):  # anti-diagonal rows 1..k-2
        draw(0, i, k + 1 - i)
    for i in sorted(set(range(1, k - r)) | {k - 1}):  # last column of A
        draw(0, i, k)
    for i in range(max(1, k - r), k):  # first column of B, rows k-r..k-1
        draw(1, i, 1)
    for j in range(2, k + 1):  # bottom row of A
        draw(0, k, j)

    return MatrixPair(coeffs, grid, "SUT", p), {"r": r, "F_roots": F_roots, "G_roots": G_roots}


# ---------------------------------------------------------------------------
# the determinant map
# ---------------------------------------------------------------------------


class DegenerateCurveError(ValueError):
    """det(Ax + By) vanishes identically, so the pair cuts out no curve."""


@dataclass(frozen=True)
class BinaryFormCurve:
    """Curve of class kH + delta*F cut out by sum of P_i(s,t) x^i y^(k-i);
    P_i is its coefficient tuple (module doc)."""

    cls: HirzebruchClass
    P: tuple[tuple[int, ...], ...]
    p: int

    def __post_init__(self):
        sizes = _block_sizes(self.cls.k, self.cls.m, self.cls.delta)
        if len(self.P) != len(sizes):
            raise ValueError("need k+1 coefficient forms")
        for i, (c, size) in enumerate(zip(self.P, sizes)):
            if len(c) != size:
                raise ValueError(f"P_{i} has {len(c)} coefficients, not {size}")
            if not all(0 <= x < self.p for x in c):
                raise ValueError(f"P_{i} coefficients must lie in [0, {self.p})")
        if not any(map(any, self.P)):
            raise DegenerateCurveError("identically zero curve rejected")


def _block_sizes(k: int, m: int, delta: int) -> list[int]:
    """d_i + 1 = delta + (k - i)m + 1 coefficients of P_i, for i = 0..k."""
    return [delta + (k - i) * m + 1 for i in range(k + 1)]


def _check_prime(grid: DegreeGrid, p: int) -> None:
    bound = grid.delta + grid.k * grid.m
    if p <= bound or p < grid.k:
        raise PrimeTooSmallError(
            f"prime too small for the determinant map: needs p > delta + k*m = {bound} "
            f"and p >= k = {grid.k}"
        )


# the node tables depend on the class (and p), never on the stratum.  At
# one prime a benchmark workload reads them for at most the 64 desk
# classes: dominance-desk 64 staircases and no W, sample-certify 61 of
# each, lemma-sut 32 of each, so 64 entries hold them all.
@functools.lru_cache(maxsize=64)
def _staircase(k: int, m: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the module doc, in the order of the coefficient rows:
    the t of each node, and its point as one row (x, y)."""
    sizes = _block_sizes(k, m, delta)
    point = np.repeat(np.arange(k + 1), sizes)
    t = np.concatenate([np.arange(n) for n in sizes])
    finite = point < k
    xy = np.column_stack([np.where(finite, point, 1), finite])
    t.flags.writeable = xy.flags.writeable = False
    return t, xy


def _node_matrices(pair: MatrixPair) -> np.ndarray:
    """x A(t) + y B(t) mod p at the R nodes, shape (R, k, k).  Needs
    p > delta + k*m and p >= k (module doc)."""
    grid, p, k = pair.grid, pair.p, pair.k
    _check_prime(grid, p)
    t, xy = _staircase(k, grid.m, grid.delta)
    at = _eval_at_nodes(pair.coeffs, grid.delta + k * grid.m + 1, p)[t]  # (R, 2, k, k)
    return (at[:, 0] * xy[:, 0, None, None] + at[:, 1] * xy[:, 1, None, None]) % p


@functools.lru_cache(maxsize=64)
def _node_inverse(k: int, m: int, delta: int, p: int) -> np.ndarray:
    """W, the inverse mod p of the node-by-monomial table, as int32: W
    times the values at the nodes is the coefficients of P_0..P_k.

    It is the unisolvence argument run on the identity.  The j-th
    divided difference over x = 0..j, sum_b (-1)^(j-b) binom(j, b) F(b)
    / j!, is taken at t = 0..d_j and interpolated in t; the one at
    (1 : 0) is P_k itself.  Then P_i = sum_{j>=i} s(j, i) c_j, with
    s(j, i) the coefficients of x(x-1)...(x-j+1).  Callers check the
    prime first (`_node_matrices`): below its bounds j! or the t-nodes
    are not invertible, and the build fails without naming them.
    """
    sizes = _block_sizes(k, m, delta)
    eye = np.eye(sum(sizes), dtype=np.int64)
    at_point = np.split(eye, np.cumsum(sizes)[:-1])
    newton = []
    for j in range(k):
        diff = sum((-1) ** (j - b) * comb(j, b) % p * at_point[b][: sizes[j]] for b in range(j + 1))
        newton.append(interp_nodes(diff % p * inv_mod(factorial(j), p) % p, p))
    newton.append(interp_nodes(at_point[k], p))
    coef = [np.zeros_like(block) for block in at_point]
    falling = [1]
    for j, c_j in enumerate(newton):
        for i, s in enumerate(falling):
            coef[i][: sizes[j]] += s * c_j % p
        falling = pmul(falling, [-j % p, 1], p)
    inv = (np.vstack(coef) % p).astype(np.int32)
    inv.flags.writeable = False
    return inv


def phi(pair: MatrixPair) -> BinaryFormCurve:
    """The determinant map: (A, B) -> det(Ax + By) as a curve.

    W times the determinants at the staircase of the module doc, split
    into P_0..P_k, so p > delta + k*m and p >= k are needed; a smaller
    prime raises PrimeTooSmallError.  A pair whose determinant vanishes
    identically raises DegenerateCurveError.
    """
    grid, p, k = pair.grid, pair.p, pair.k
    dets = batch_det_mod(_node_matrices(pair), p)
    coef = _table_product(_node_inverse(k, grid.m, grid.delta, p), dets, p)
    blocks = np.split(coef, np.cumsum(_block_sizes(k, grid.m, grid.delta))[:-1])
    cls = HirzebruchClass(m=grid.m, k=k, delta=grid.delta)
    return BinaryFormCurve(cls=cls, P=tuple(tuple(b.tolist()) for b in blocks), p=p)


@dataclass(frozen=True)
class ReducibilityVerdict:
    """Forced-reducibility report for a degree grid."""

    verdict: str  # DIVISIBLE_BY_Y | BLOCK_FACTOR | NONE
    divisible_y: tuple[tuple[int, int], ...]  # (i, a_{i,k+1-i}) with value < 0
    block: tuple[tuple[int, int], ...]  # (i, b_{i,k-i}) with value < 0


def forced_reducibility(grid: DegreeGrid) -> ReducibilityVerdict:
    """Detect grids whose every pair maps to a reducible curve.

    A negative anti-diagonal a-degree kills the x^k coefficient, so y
    divides the output; a negative b_{i,k-i} forces a block
    anti-triangular shape whose block determinant splits off.  When both
    happen the verdict reports the deeper violation (ties go to
    DIVISIBLE_BY_Y).
    """
    k = grid.k
    div_y = tuple(
        (i, grid.a[i - 1][k - i]) for i in range(1, k + 1) if grid.a[i - 1][k - i] < 0
    )
    block = tuple(
        (i, grid.b[i - 1][k - i - 1]) for i in range(1, k) if grid.b[i - 1][k - i - 1] < 0
    )
    if not div_y and not block:
        return ReducibilityVerdict("NONE", (), ())
    worst_y = min((v for _, v in div_y), default=1)
    worst_b = min((v for _, v in block), default=1)
    verdict = "DIVISIBLE_BY_Y" if worst_y <= worst_b else "BLOCK_FACTOR"
    return ReducibilityVerdict(verdict, div_y, block)


def reducibility_witness(pair: MatrixPair) -> bool:
    """Exact check that the forced factorization really happens.

    DIVISIBLE_BY_Y: the x^k coefficient P_k of det vanishes identically,
    so y divides the output polynomial.  BLOCK_FACTOR: det equals
    +/- det(top-right block) * det(complement), hence the block minor
    divides it.  Works directly on determinants so that even degenerate
    pairs (det identically zero) are handled.  Both are checked at the
    staircase of the module doc: P_k at its (1 : 0) nodes, and the block
    identity at every node, which is exact because each side is a form
    with deg P_i <= d_i (the product's terms are transversals of the
    grid).  Like phi, that needs p > delta + k*m and p >= k, and a
    smaller prime raises PrimeTooSmallError.
    """
    verdict = forced_reducibility(pair.grid)
    k, p = pair.k, pair.p
    if verdict.verdict == "NONE":
        return False
    mats = _node_matrices(pair)
    if verdict.verdict == "DIVISIBLE_BY_Y":
        # the last delta + 1 nodes are (1 : 0), where det is P_k
        return not batch_det_mod(mats[-(pair.grid.delta + 1) :], p).any()
    i0 = min(verdict.block, key=lambda iv: iv[1])[0]
    top = batch_det_mod(mats[:, :i0, k - i0 :], p)
    bottom = batch_det_mod(mats[:, i0:, : k - i0], p)
    # det M = (-1)^(i0 * (k - i0)) * det(top-right) * det(bottom-left)
    sign = -1 if (i0 * (k - i0)) % 2 else 1
    return bool(np.array_equal(batch_det_mod(mats, p), sign * top * bottom % p))


def pair_to_json_dict(pair: MatrixPair) -> dict:
    """Each entry as its d + 1 coefficients, or [] when it is zero."""

    def entry(mat, i, j):
        d = (pair.grid.a, pair.grid.b)[mat][i][j]
        c = pair.coeffs[mat, i, j, : max(d + 1, 0)]
        return c.tolist() if c.any() else []

    k = pair.k
    doc = {"p": pair.p, "m": pair.grid.m, "k": k, "delta": pair.grid.delta}
    for mat, name in enumerate("AB"):
        doc[name] = [[entry(mat, i, j) for j in range(k)] for i in range(k)]
    return doc


def pair_from_json_dict(doc: dict) -> MatrixPair:
    """Rebuild a pair from the wire format.

    Degrees are inferred from coefficient list lengths; entries sent as
    [] get degree -1, which is all the determinant path needs (zero
    entries never enter a product).
    """
    p = doc["p"]
    a, b = (tuple(tuple(len(c) - 1 for c in row) for row in doc[name]) for name in "AB")
    grid = DegreeGrid(a=a, b=b, m=doc["m"], delta=doc["delta"])
    coeffs = _zero_coeffs(grid)
    for mat, name in enumerate("AB"):
        for i, j in np.ndindex(grid.k, grid.k):
            c = doc[name][i][j]
            coeffs[mat, i, j, : len(c)] = c
    return MatrixPair(coeffs % p, grid, "FULL", p)


def curve_to_json_dict(curve: BinaryFormCurve) -> dict:
    """Each P_i as its coefficients, or [] when it is zero."""
    return {
        "p": curve.p,
        "m": curve.cls.m,
        "k": curve.cls.k,
        "delta": curve.cls.delta,
        "P": [list(c) if any(c) else [] for c in curve.P],
    }


def curve_from_json_dict(doc: dict) -> BinaryFormCurve:
    """Inverse of curve_to_json_dict; a [] form gets its length from the
    class, and coefficients are reduced mod p."""
    p = doc["p"]
    cls = HirzebruchClass(m=doc["m"], k=doc["k"], delta=doc["delta"])
    sizes = _block_sizes(cls.k, cls.m, cls.delta)
    P = tuple(tuple(x % p for x in c) or (0,) * n for c, n in zip(doc["P"], sizes, strict=True))
    return BinaryFormCurve(cls=cls, P=P, p=p)
