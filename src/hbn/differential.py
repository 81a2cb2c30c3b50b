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

Tangent subspaces are named selectors over an ambient entry pattern.
FULL_PRIME takes every coordinate the pattern and degree grid admit.
T_PRIME kills the anti-diagonal of A' and the super-anti-diagonal of B';
T_DOUBLE_PRIME additionally kills the lower-right A' entry; T_CORNER
keeps only the surviving first-column/bottom-row coordinates, and
T_INDUCTIVE kills the first column and bottom row entirely, so
T_DOUBLE_PRIME splits as T_CORNER plus T_INDUCTIVE.

Coefficient conventions: block i of the target is the coefficient vector
of P_i (ascending powers of t, length delta + (k - i)m + 1); a matrix
over F_p stacks blocks 1..k, with block 0 prepended for full-target rank
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from hbn.determinantal import (
    DegreeGrid,
    MatrixPair,
    degree_grid,
    pair_values,
    pattern_allows,
    sample_is_point,
    sample_pair,
)
from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, inv_mod
from hbn.exact.linalg import matrix_rank
from hbn.exact.poly import interp_nodes, pdeg, pdivmod, pmul, ptrim
from hbn.seeds import derive_seed
from hbn.splitting import HirzebruchClass

SELECTORS = ("FULL_PRIME", "T_PRIME", "T_DOUBLE_PRIME", "T_CORNER", "T_INDUCTIVE")


# ---------------------------------------------------------------------------
# tangent coordinates
# ---------------------------------------------------------------------------


Coord = tuple[str, int, int, int]  # (matrix, row, col, t-power)


def _selector_admits(selector: str, k: int, mat: str, i: int, j: int) -> bool:
    # 0-based: anti-diagonal is i + j == k - 1, super-anti-diagonal i + j == k - 2
    anti = mat == "A" and i + j == k - 1
    super_anti = mat == "B" and i + j == k - 2
    corner_entry = mat == "A" and i == k - 1 and j == k - 1
    if selector == "FULL_PRIME":
        return True
    if selector == "T_PRIME":
        return not (anti or super_anti)
    if selector == "T_DOUBLE_PRIME":
        return not (anti or super_anti or corner_entry)
    if selector == "T_CORNER":
        # first column / bottom row survivors inside T_DOUBLE_PRIME
        return (mat == "A" and i == k - 1 and 1 <= j <= k - 2) or (
            mat == "B" and j == 0 and i <= k - 3
        )
    if selector == "T_INDUCTIVE":
        edge = i == k - 1 or j == 0
        return not (anti or super_anti or corner_entry or edge)
    raise ValueError(f"unknown selector {selector!r}")


def tangent_basis(
    grid: DegreeGrid, selector: str, pattern: str | None = None
) -> tuple[Coord, ...]:
    """Ordered coordinates of a tangent subspace over an ambient entry pattern.

    One coordinate per monomial of each admitted entry, so there are
    sum(degree + 1) over the admitted entries.  The ambient defaults to
    FULL for FULL_PRIME and SUT otherwise; the triangular selectors only
    make sense over SUT.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    if pattern is None:
        pattern = "FULL" if selector == "FULL_PRIME" else "SUT"
    if selector != "FULL_PRIME" and pattern != "SUT":
        raise ValueError("triangular selectors need the SUT pattern")
    k = grid.k
    coords = []
    for mat, degs in (("A", grid.a), ("B", grid.b)):
        for i in range(k):
            for j in range(k):
                d = degs[i][j]
                if d < 0:
                    continue
                if not pattern_allows(pattern, k, mat, i, j):
                    continue
                if not _selector_admits(selector, k, mat, i, j):
                    continue
                coords.extend((mat, i, j, jj) for jj in range(d + 1))
    return tuple(coords)


# ---------------------------------------------------------------------------
# the differential as a matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DifferentialMatrix:
    """Matrix of the differential from tangent coordinates to P-coefficient blocks."""

    entries: np.ndarray
    coords: tuple[Coord, ...]
    blocks: tuple[int, ...]
    sizes: tuple[int, ...]
    p: int

    def rank(self) -> int:
        return matrix_rank(self.entries, self.p)

    def block_rows(self, i: int) -> np.ndarray:
        off = 0
        for blk, size in zip(self.blocks, self.sizes):
            if blk == i:
                return self.entries[off : off + size]
            off += size
        raise ValueError(f"block {i} not in matrix")


def _block_layout(grid: DegreeGrid, include_p0: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    blocks = tuple(range(0 if include_p0 else 1, grid.k + 1))
    sizes = tuple(grid.delta + (grid.k - i) * grid.m + 1 for i in blocks)
    return blocks, sizes


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


def dphi_matrix(pair: MatrixPair, selector: str, include_p0: bool = False) -> DifferentialMatrix:
    """One column per tangent coordinate; rows stack P-blocks 1..k (plus 0).

    A coordinate t^j in entry (r, c) of A' contributes the cofactor's
    x-power-i part, shifted by j, to block i + 1; the same coordinate of
    B' feeds block i.  One gather fills the matrix:
    entries[row, col] = coef[r, c, xpow, row_local - j], 0 out of range.
    """
    grid = pair.grid
    coords = tangent_basis(grid, selector, pattern=pair.pattern)
    blocks, sizes = _block_layout(grid, include_p0)
    coef = cofactor_forms(pair)
    k, tlen = coef.shape[2], coef.shape[3]
    cols = np.array(
        [(mat == "A", r, c, jj) for mat, r, c, jj in coords], dtype=np.intp
    ).reshape(-1, 4)
    is_a, r, c, jj = cols.T
    row_block = np.repeat(blocks, sizes)[:, None]
    row_local = np.concatenate([np.arange(size) for size in sizes])[:, None]
    xpow = row_block - is_a
    tpow = row_local - jj
    inside = (xpow >= 0) & (xpow < k) & (tpow >= 0) & (tpow < tlen)
    gathered = coef[r, c, np.clip(xpow, 0, k - 1), np.clip(tpow, 0, tlen - 1)]
    mat = np.where(inside, gathered, 0)
    return DifferentialMatrix(entries=mat, coords=coords, blocks=blocks, sizes=sizes, p=pair.p)


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
        pair = sample_pair(grid, "FULL", p, rng)
        M = dphi_matrix(pair, "FULL_PRIME", include_p0=True)
        source = len(M.coords)  # the same coordinates on every trial
        max_rank = max(max_rank, M.rank())
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


def _require_triangular(pair: MatrixPair) -> None:
    if pair.pattern != "SUT":
        raise ValueError("pair must follow the SUT pattern")


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


def lemma_sq_check(pair: MatrixPair) -> bool:
    """Joint surjectivity onto the outer blocks (P_1, P_k) from the full
    triangular tangent space.  Deterministic given the pair."""
    _require_triangular(pair)
    grid = pair.grid
    k = grid.k
    M = dphi_matrix(pair, "FULL_PRIME")
    outer = np.vstack([M.block_rows(1), M.block_rows(k)])
    want = (grid.delta + (k - 1) * grid.m + 1) + (grid.delta + 1)
    return matrix_rank(outer, pair.p) == want


def lemma_main_containment(pair: MatrixPair, M: DifferentialMatrix) -> bool:
    """Whether every column of M, the pair's T_PRIME differential, lands in
    the subspace where the super-anti-diagonal product divides P_1 and P_k
    vanishes."""
    grid = pair.grid
    k = grid.k
    p = pair.p
    g, degree = super_anti_product(pair)
    if not g:
        return False
    if np.any(M.block_rows(k) % p):
        return False
    bound = grid.delta + (k - 1) * grid.m - degree
    block1 = M.block_rows(1)
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
    _require_triangular(pair)
    grid = pair.grid
    k = grid.k
    M = dphi_matrix(pair, "T_PRIME")
    if not lemma_main_containment(pair, M):
        return False
    dim_w = grid.a[k - 1][k - 1] + 1
    dim_w += sum(grid.delta + (k - i) * grid.m + 1 for i in range(2, k))
    return M.rank() == dim_w


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
        M = dphi_matrix(pair, "T_CORNER")
        rows = []
        f_roots = [root for i in sorted(meta["F_roots"]) for root in meta["F_roots"][i]]
        for root in f_roots:
            rows.append(_eval_row(M, 2, root, p))
        for i in range(2, k):
            for root in meta["G_roots"]:
                rows.append(_eval_row(M, i, root, p))
        if not rows:
            return True
        if matrix_rank(np.array(rows, dtype=np.int64), p) == len(rows):
            return True
    return False


def _eval_row(M: DifferentialMatrix, block: int, t0: int, p: int) -> np.ndarray:
    sub = M.block_rows(block) % p
    weights = np.array([pow(t0, idx, p) for idx in range(sub.shape[0])], dtype=np.int64)
    return (sub * weights[:, None] % p).sum(axis=0) % p
