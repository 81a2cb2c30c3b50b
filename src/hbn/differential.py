"""Exact differential of the determinant map and its rank certificates.

The differential of (A, B) -> det(Ax + By) at a pair sends a tangent
direction (A', B') to the coefficient of eps in
det((A + eps A')x + (B + eps B')y) mod eps^2.  That coefficient equals
sum_{r,c} C_rc (A'_rc x + B'_rc y) where C_rc is the signed cofactor of
Ax + By at (r, c), so one cofactor pass per pair yields every column of
the differential; the test suite keeps a literal dual-number
determinant per column as a slow cross-check.

A DOMINANT verdict mod p also holds over Q.  The entries of the
differential are integer polynomials in the pair's coefficients, so at
the integer lift of a sampled pair every minor is an integer that
reduces to the minor mod p.  A minor that is nonzero mod p is therefore
a nonzero integer, d(phi) has full rank over Q at the lift, and phi is
dominant in characteristic 0.

Cofactors come by evaluation and interpolation (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5).  With s = y = 1, every entry
of A and B is evaluated at the nodes t = 0..n-1, the matrices A(t)x + B(t)
are formed at x = 0..k-1 (`determinantal.pair_values`), and the
Faddeev-LeVerrier recurrence gives all k^2 signed cofactors at all n*k
points in k - 1 batched products.
Each cofactor has x-degree at most k - 1, and an entry with b_rc >= 0
(the only entries with tangent coordinates) has a cofactor of t-degree
at most delta + k*m, so exactly n = delta + k*m + 1 nodes interpolate
it.  This needs p > delta + k*m, and p >= k for the x-nodes and the
recurrence's divisions by 1..k-1; a smaller prime raises
PrimeTooSmallError.

Tangent subspaces are named selectors, each a (2, k, k) entry mask
(index 0 is A') that dphi_matrix intersects with the pair's pattern
support.  FULL_PRIME takes every coordinate the pattern and degree grid
admit.  T_PRIME keeps the SUT entries off the anti-diagonal of A' and
the super-anti-diagonal of B'; T_CORNER keeps only its bottom row of A'
without the lower-right entry, and its first column of B'.  Each lemma
harness reads one of these (LEMMA_SELECTORS).  A coordinate is one int
row (matrix, i, j, t-power) of tangent_basis.

Coefficient conventions: the differential is a list of k + 1 blocks,
block i holding the coefficient vector of P_i (ascending powers of t,
length delta + (k - i)m + 1) as rows, one column per coordinate.  The
dominance rank stacks them all; each lemma reads the blocks it names.
"""

from __future__ import annotations

import random

import numpy as np

from hbn.determinantal import (
    DegreeGrid,
    MatrixPair,
    degree_grid,
    pair_values,
    pattern_support,
    sample_is_point,
    sample_pair,
)
from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, inv_mod
from hbn.exact.linalg import matrix_rank
from hbn.exact.poly import interp_nodes, pdeg, pdivmod, pmul, ptrim
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
# the differential, block by block
# ---------------------------------------------------------------------------


def _cofactors(mats: np.ndarray, p: int) -> np.ndarray:
    """Signed cofactors C[..., r, c] = C_rc of a stack (..., k, k) mod p.

    Faddeev-LeVerrier: M_1 = I and M_{j+1} = A M_j + c_j I with
    c_j = -tr(A M_j) / j give adj A = (-1)^(k-1) M_k, and C = adj^T.
    The loop carries T_j = M_j^T (T_{j+1} = T_j A^T + c_j I), so both
    factors are summed over their last axis.  Dividing by j <= k - 1
    needs p >= k.  Every product is reduced before it is summed.
    """
    k = mats.shape[-1]
    diag = np.arange(k)
    t = np.zeros_like(mats)
    t[..., diag, diag] = 1
    for j in range(1, k):
        prod = t[..., :, None, :] * mats[..., None, :, :] % p
        t = prod[..., 0].copy()  # k - 1 adds beat .sum() over a length-k axis
        for col in range(1, k):
            t += prod[..., col]
        t %= p
        tr = t.diagonal(axis1=-2, axis2=-1)
        c = -tr.sum(axis=-1) % p * inv_mod(j, p) % p
        t[..., diag, diag] = (tr + c[..., None]) % p
    return t if k % 2 else (p - t) % p


def cofactor_forms(pair: MatrixPair) -> np.ndarray:
    """Signed cofactors of Ax + By by evaluation and interpolation.

    Returns an int64 array coef[r, c, xpow, tpow] in [0, p): the
    coefficient of x^xpow t^tpow (s = y = 1) in the signed cofactor C_rc,
    for tpow = 0..delta + k*m.  Exact for every entry with b_rc >= 0.  The
    cofactor of an entry with b_rc < 0 may exceed that t-degree and then
    aliases; such entries carry no tangent coordinates and must never be
    read.  The cofactors at each node come from the Faddeev-LeVerrier
    recurrence (`_cofactors`), which needs p >= k.
    """
    grid, p, k = pair.grid, pair.p, pair.k
    bound = grid.delta + k * grid.m
    if p <= bound or p < k:
        raise PrimeTooSmallError(
            f"prime too small for cofactor interpolation: needs p > delta + k*m = {bound} "
            f"and p >= k = {k}"
        )
    cof = _cofactors(pair_values(pair, bound + 1, k), p)  # cof[t, x, r, c] = C_rc
    coef = interp_nodes(interp_nodes(cof, p, axis=1), p)  # (tpow, xpow, r, c)
    return coef.transpose(2, 3, 1, 0)


def dphi_matrix(pair: MatrixPair, selector: np.ndarray) -> list[np.ndarray]:
    """The differential on the tangent coordinates of the selector mask
    and the pair's pattern, as k + 1 int64 blocks: block i has one row per
    coefficient of P_i and one column per coordinate (tangent_basis).

    A coordinate t^j in entry (r, c) of A' contributes the cofactor's
    x-power-i part, shifted by j, to block i + 1; the same coordinate of
    B' feeds block i.  One gather fills every block:
    entry[row, col] = coef[r, c, xpow, row_local - j], 0 out of range.
    """
    grid, k = pair.grid, pair.k
    coords = tangent_basis(grid, selector & pattern_support(pair.pattern, k))
    coef = cofactor_forms(pair)
    tlen = coef.shape[3]
    mat, r, c, jj = coords.T
    sizes = [grid.delta + (k - i) * grid.m + 1 for i in range(k + 1)]
    xpow = np.repeat(np.arange(k + 1), sizes)[:, None] - 1 + mat  # A' (mat 0) shifts by x
    tpow = np.concatenate([np.arange(size) for size in sizes])[:, None] - jj
    inside = (xpow >= 0) & (xpow < k) & (tpow >= 0) & (tpow < tlen)
    gathered = coef[r, c, np.clip(xpow, 0, k - 1), np.clip(tpow, 0, tlen - 1)]
    return np.split(np.where(inside, gathered, 0), np.cumsum(sizes)[:-1])


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
    full coefficient space including the P_0 block.  Reaching the target
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
    target = sum(cls.delta + (cls.k - i) * cls.m + 1 for i in range(cls.k + 1))
    max_rank = 0
    used = 0
    for _ in range(trials):
        used += 1
        blocks = dphi_matrix(sample_pair(grid, "FULL", p, rng), selector_mask("FULL_PRIME", cls.k))
        source = blocks[0].shape[1]  # the same coordinates on every trial
        max_rank = max(max_rank, matrix_rank(np.vstack(blocks), p))
        if max_rank == target:
            break
    verdict = "DOMINANT" if max_rank == target else "NOT_ACHIEVED"
    return {
        "target_dim": target,
        "source_dim": source,
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
    want = (grid.delta + (k - 1) * grid.m + 1) + (grid.delta + 1)
    return matrix_rank(outer, pair.p) == want


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
    dim_w = grid.a[k - 1][k - 1] + 1
    dim_w += sum(grid.delta + (k - i) * grid.m + 1 for i in range(2, k))
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
