"""Exact differential of the determinant map and its rank certificates.

The differential of (A, B) -> det(Ax + By) at a pair sends a tangent
direction (A', B') to the coefficient of eps in
det((A + eps A')x + (B + eps B')y) mod eps^2.  That coefficient equals
sum_{r,c} C_rc (A'_rc x + B'_rc y) where C_rc is the signed cofactor of
Ax + By at (r, c), so the cofactors of one pair give every column of
the differential; the test suite keeps a literal dual-number
determinant per column as a slow cross-check.

Each column is a form F = sum_i P_i(t) x^i y^(k-i) (s = 1) with
deg P_i <= d_i = delta + (k - i)m, so it is computed by its values at
the staircase of R = sum_i (d_i + 1) nodes that hbn.determinantal
defines for every form in |kH + delta*F|, with its unisolvence argument
and its bounds p > delta + k*m and p >= k.  At a node the column of coordinate
(mat, r, c, j) is t^j C_rc times x for A' (mat 0) or y for B' (mat 1),
with all k^2 cofactors of x A(t) + y B(t) at all R nodes from k - 2
batched products of the Faddeev-LeVerrier recurrence (`_cofactors`),
whose divisions by 1..k-1 need the same p >= k.

dphi_values returns the values, one row per node.  dphi_matrix maps
them to coefficients with W (`_node_inverse`), as phi does.

dominance_rank ranks the values V J directly, V the staircase's
node-by-monomial table and J the coefficient differential: V is
invertible mod p, so the rank is J's.  A DOMINANT
verdict mod p also holds over Q.  V is an integer matrix and the
entries of J are integer polynomials in the pair's coefficients, so at
the integer lift of a sampled pair every minor of V J is an integer
that reduces to the minor mod p.  A minor that is nonzero mod p is
therefore a nonzero integer, so V J, and with it J = d(phi), has full
rank over Q at the lift, and phi is dominant in characteristic 0.

Tangent subspaces are named selectors, each a (2, k, k) entry mask
(index 0 is A') that dphi_matrix intersects with the pair's pattern
support.  FULL_PRIME takes every coordinate the pattern and degree grid
admit.  T_PRIME keeps the SUT entries off the anti-diagonal of A' and
the super-anti-diagonal of B'; T_CORNER keeps only its bottom row of A'
without the lower-right entry, and its first column of B'.  Each lemma
harness reads one of these (LEMMA_SELECTORS).  A coordinate is one int
row (matrix, i, j, t-power) of tangent_basis.

Coefficient conventions: dphi_matrix is a list of k + 1 blocks, block i
holding the coefficient vector of P_i (ascending powers of t, length
delta + (k - i)m + 1) as rows, one column per coordinate.  Each lemma
reads the blocks it names.
"""

from __future__ import annotations

import random

import numpy as np

from hbn.determinantal import (
    DegreeGrid,
    MatrixPair,
    _block_sizes,
    _check_prime,
    _node_inverse,
    _node_matrices,
    _staircase,
    degree_grid,
    pattern_support,
    sample_is_point,
    sample_pair,
)
from hbn.exact.field import DEFAULT_PRIME, inv_mod
from hbn.exact.linalg import matrix_rank
from hbn.exact.poly import _powers, _table_product, pdeg, pdivmod, pmul, ptrim
from hbn.seeds import derive_seed
from hbn.splitting import HirzebruchClass

# each lemma harness is a statement about one fixed tangent subspace
LEMMA_SELECTORS = {"sq": "FULL_PRIME", "main": "T_PRIME", "is": "T_CORNER"}


# ---------------------------------------------------------------------------
# tangent coordinates
# ---------------------------------------------------------------------------


def selector_mask(selector: str, k: int) -> np.ndarray:
    """The (2, k, k) entry mask of a named tangent subspace (module doc);
    index 0 is A'."""
    if selector == "FULL_PRIME":
        return np.ones((2, k, k), dtype=bool)
    # SUT without the anti-diagonal of A' and the super-anti-diagonal of B'
    i, j = np.indices((k, k))
    a, b = i + j > k - 1, i + j < k - 2
    if selector == "T_PRIME":
        return np.array([a, b])
    if selector == "T_CORNER":  # A's bottom row but its corner, B's first column
        return np.array([a & (i == k - 1) & (j < k - 1), b & (j == 0)])
    raise ValueError(f"unknown selector {selector!r}")


def tangent_basis(grid: DegreeGrid, support: np.ndarray) -> np.ndarray:
    """Tangent coordinates over a (2, k, k) entry mask, one int row
    (matrix, i, j, t-power) each, matrix 0 for A' and 1 for B'.

    One coordinate per monomial of each entry in the mask whose grid
    degree is nonnegative, ordered by matrix, row, column and t-power.
    """
    degrees = np.array((grid.a, grid.b), dtype=np.int64)
    entries = np.argwhere(support & (degrees >= 0))
    counts = degrees[tuple(entries.T)] + 1
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    tpow = np.arange(len(starts)) - starts
    return np.column_stack([np.repeat(entries, counts, axis=0), tpow])


# ---------------------------------------------------------------------------
# the differential at a staircase of nodes
# ---------------------------------------------------------------------------


def _cofactors(mats: np.ndarray, p: int) -> np.ndarray:
    """Signed cofactors C[..., r, c] = C_rc of a stack (..., k, k) of
    entries in [0, p), mod p.

    Faddeev-LeVerrier: M_1 = I and M_{j+1} = A M_j + c_j I with
    c_j = -tr(A M_j) / j give adj A = (-1)^(k-1) M_k, and C = adj^T.
    The loop carries T_j = M_j^T (T_{j+1} = T_j A^T + c_j I), and T_1 A^T
    is A^T itself.  A^T is split into 16-bit halves, so a product of
    entries is below 2^47 and each sum of k of them is exact in int64.
    Dividing by j <= k - 1 needs p >= k.
    """
    k = mats.shape[-1]
    eye = np.eye(k, dtype=np.int64)
    at = mats.swapaxes(-1, -2)
    hi, lo = at >> 16, at & 0xFFFF
    t = np.broadcast_to(eye, mats.shape)
    for j in range(1, k):
        t = at if j == 1 else (t @ hi % p << 16) + t @ lo
        c = np.trace(t, axis1=-2, axis2=-1) % p * (p - inv_mod(j, p)) % p
        t = (t + c[..., None, None] * eye) % p
    return t if k % 2 else (p - t) % p


def _node_cofactors(pair: MatrixPair) -> np.ndarray:
    """C[n, r, c]: the signed cofactors of x A(t) + y B(t) at node n."""
    return _cofactors(_node_matrices(pair), pair.p)


def _node_weights(grid: DegreeGrid, coords: np.ndarray, p: int) -> np.ndarray:
    """w[n, col] = t^j x (A') or t^j y (B') at node n, for coordinate col."""
    t, xy = _staircase(grid.k, grid.m, grid.delta)
    mat, jj = coords[:, 0], coords[:, 3]
    powers = _powers(grid.delta + grid.k * grid.m + 1, int(jj.max(initial=0)) + 1, p)
    return powers[jj, t[:, None]] * xy[:, mat] % p


def _values(pair: MatrixPair, coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dphi_values for coordinates and their `_node_weights` at hand."""
    return _node_cofactors(pair)[:, coords[:, 1], coords[:, 2]] * weights % pair.p


def dphi_values(pair: MatrixPair, selector: np.ndarray) -> np.ndarray:
    """The differential's columns at the nodes: an int64 array of shape
    (R, coordinates) in [0, p), one row per node (module doc) and one
    column per coordinate of the selector mask and the pair's pattern
    (tangent_basis).  Needs p > delta + k*m and p >= k."""
    grid, p = pair.grid, pair.p
    coords = tangent_basis(grid, selector & pattern_support(pair.pattern, pair.k))
    return _values(pair, coords, _node_weights(grid, coords, p))


def dphi_matrix(pair: MatrixPair, selector: np.ndarray) -> list[np.ndarray]:
    """The differential on the tangent coordinates of the selector mask
    and the pair's pattern, as k + 1 int64 blocks in [0, p): block i has
    one row per coefficient of P_i (ascending powers of t) and one column
    per coordinate (tangent_basis).  It is W times dphi_values (module
    doc), one `_table_product`."""
    grid, p = pair.grid, pair.p
    values = dphi_values(pair, selector)
    coef = _table_product(_node_inverse(grid.k, grid.m, grid.delta, p), values, p)
    return np.split(coef, np.cumsum(_block_sizes(grid.k, grid.m, grid.delta))[:-1])


# ---------------------------------------------------------------------------
# dominance certification
# ---------------------------------------------------------------------------


def dominance_rank(
    e,
    f,
    cls: HirzebruchClass,
    trials: int = 5,
    rng: random.Random | None = None,
    p: int = DEFAULT_PRIME,
) -> dict:
    """Empirical rank certificate for the determinant map on a stratum.

    Samples FULL pairs and computes the rank of the differential onto the
    full coefficient space including the P_0 block, as the rank of its
    values at the nodes (module doc), which is the same.  Reaching the target
    rank at any sample certifies dominance (rank is lower semicontinuous,
    so a general pair does at least as well); otherwise the verdict stays
    NOT_ACHIEVED and the max rank seen is reported as evidence.  No
    stratum conditions are checked here: on a forced-reducible grid the
    report simply never reaches the target.  trials must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    e, f = tuple(e), tuple(f)
    grid = degree_grid(e, f, cls.m)
    if grid.delta != cls.delta:
        raise ValueError("sum of f minus sum of e must equal delta")
    if rng is None:
        rng = random.Random(derive_seed("dominance", e, f, (cls.m, cls.k, cls.delta), p))
    target = sum(_block_sizes(cls.k, cls.m, cls.delta))
    _check_prime(grid, p)  # before any draw
    coords = tangent_basis(grid, selector_mask("FULL_PRIME", cls.k))  # FULL supports all
    weights = _node_weights(grid, coords, p)
    max_rank = 0
    used = 0
    for _ in range(trials):
        used += 1
        values = _values(sample_pair(grid, "FULL", p, rng), coords, weights)
        max_rank = max(max_rank, matrix_rank(values, p))
        if max_rank == target:
            break
    verdict = "DOMINANT" if max_rank == target else "NOT_ACHIEVED"
    return {
        "target_dim": target,
        "source_dim": len(coords),
        "max_rank": max_rank,
        "trials": used,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# the three rank lemmas behind the dominance proof
# ---------------------------------------------------------------------------


def product_rule_rank(degrees, rng: random.Random | None = None, p: int = DEFAULT_PRIME) -> bool:
    """Surjectivity of the differential of (Q_1, ..., Q_n) -> prod Q_i.

    Checked at the witness (t^d1, s^d2) when n = 2 and at random points;
    any success certifies the general statement by semicontinuity.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if rng is None:
        rng = random.Random(derive_seed("product-rule", tuple(degrees), p))

    def surjective_at(qs: list[list[int]]) -> bool:
        # Q_i as coefficient lists (index = power of t)
        total = sum(degrees) + 1
        cols = []
        for i, d in enumerate(degrees):
            rest = [1]
            for l, ql in enumerate(qs):
                if l != i:
                    rest = pmul(rest, ql, p)
            for jj in range(d + 1):
                col = [0] * total
                col[jj : jj + len(rest)] = rest
                cols.append(col)
        if not cols:
            return False
        return matrix_rank(np.array(cols, dtype=np.int64).T, p) == total

    if len(degrees) == 2:
        d1, d2 = degrees
        if surjective_at([[0] * d1 + [1], [1]]):
            return True
    for _ in range(3):
        if surjective_at([[rng.randrange(p) for _ in range(d + 1)] for d in degrees]):
            return True
    return False


def super_anti_product(pair: MatrixPair) -> tuple[list[int], int]:
    """Product of B entries on the super-anti-diagonal (divides P_1 on SUT),
    as its coefficients (index = power of t) and its form degree."""
    k, b = pair.k, pair.grid.b
    prod, degree = [1], 0
    for i in range(1, k):
        d = b[k - i - 1][i - 1]
        prod = pmul(prod, pair.coeffs[1, k - i - 1, i - 1, : max(d + 1, 0)].tolist(), pair.p)
        degree += d
    return prod, degree


def _lemma_blocks(pair: MatrixPair, lemma: str) -> list[np.ndarray]:
    """The differential of a SUT pair on the lemma's tangent subspace."""
    if pair.pattern != "SUT":
        raise ValueError("pair must follow the SUT pattern")
    return dphi_matrix(pair, selector_mask(LEMMA_SELECTORS[lemma], pair.k))


def lemma_sq_check(pair: MatrixPair) -> bool:
    """Joint surjectivity onto the outer blocks (P_1, P_k) from the full
    triangular tangent space.  Deterministic given the pair."""
    blocks = _lemma_blocks(pair, "sq")
    grid = pair.grid
    k = grid.k
    outer = np.vstack([blocks[1], blocks[k]])
    sizes = _block_sizes(k, grid.m, grid.delta)
    return matrix_rank(outer, pair.p) == sizes[1] + sizes[k]


def lemma_main_containment(pair: MatrixPair, blocks: list[np.ndarray]) -> bool:
    """Whether every column of the pair's T_PRIME differential (its k + 1
    blocks) lands in the subspace where the super-anti-diagonal product
    divides P_1 and P_k vanishes."""
    grid = pair.grid
    k = grid.k
    p = pair.p
    g, degree = super_anti_product(pair)
    if not g:
        return False
    if np.any(blocks[k] % p):
        return False
    bound = grid.delta + (k - 1) * grid.m - degree
    block1 = blocks[1]
    for col in range(block1.shape[1]):
        fcol = ptrim([int(x) % p for x in block1[:, col]])
        if not fcol:
            continue
        q, rem = pdivmod(fcol, g, p)
        if ptrim(rem) or pdeg(q) > bound:
            return False
    return True


def lemma_main_check(pair: MatrixPair) -> bool:
    """Image of the T_PRIME restriction equals the subspace where the
    super-anti-diagonal product divides P_1 and P_k = 0: containment
    column by column plus a dimension count.  Deterministic given the
    pair."""
    blocks = _lemma_blocks(pair, "main")
    grid = pair.grid
    k = grid.k
    if not lemma_main_containment(pair, blocks):
        return False
    dim_w = grid.a[k - 1][k - 1] + 1 + sum(_block_sizes(k, grid.m, grid.delta)[2:k])
    return matrix_rank(np.vstack(blocks[1:]), pair.p) == dim_w


def lemma_is_check(
    k: int,
    e,
    f,
    m: int,
    rng: random.Random | None = None,
    p: int = DEFAULT_PRIME,
    tries: int = 3,
) -> bool:
    """Surjectivity of the evaluation-composed differential at the special
    inductive point.

    Builds the point with split pairwise-coprime entries, restricts the
    differential to the corner subspace, then evaluates: the P_2 block at
    every root of F = prod of the fixed super-anti-diagonal entries, and
    each middle block P_2..P_{k-1} at every root of the corner entry G.
    Surjective means the evaluation rows are independent.  Surjectivity
    is an open condition, so one good draw certifies it; an unlucky draw
    proves nothing, so up to `tries` draws are made (at least 1).
    """
    if tries < 1:
        raise ValueError(f"tries must be at least 1, got {tries}")
    e, f = tuple(e), tuple(f)
    if len(e) != k or len(f) != k:
        raise ValueError("types must have length k")
    if rng is None:
        rng = random.Random(derive_seed("lemma-is", e, f, m, p))
    grid = degree_grid(e, f, m)
    for _ in range(tries):
        pair, meta = sample_is_point(grid, p, rng)
        blocks = _lemma_blocks(pair, "is")
        rows = []
        f_roots = [root for i in sorted(meta["F_roots"]) for root in meta["F_roots"][i]]
        for root in f_roots:
            rows.append(_eval_row(blocks[2], root, p))
        for i in range(2, k):
            for root in meta["G_roots"]:
                rows.append(_eval_row(blocks[i], root, p))
        if not rows:
            return True
        if matrix_rank(np.array(rows, dtype=np.int64), p) == len(rows):
            return True
    return False


def _eval_row(block: np.ndarray, t0: int, p: int) -> np.ndarray:
    sub = block % p
    weights = np.array([pow(t0, idx, p) for idx in range(sub.shape[0])], dtype=np.int64)
    return (sub * weights[:, None] % p).sum(axis=0) % p
