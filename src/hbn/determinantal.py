"""Determinantal realization of curves: pairs (A, B) and det(Ax + By).

A stratum (e, f) fixes a degree grid a_ij = f_i - e_{k+1-j} (and
b_ij = a_ij + m); pairs of matrices with entries of those degrees map to
curves of class kH + delta*F via the determinant.  Entries whose degree
is negative are identically zero, and that forced vanishing is exactly
what detects reducibility for bad strata.

Triangularity conventions are with respect to the ANTI-diagonal: in the
LU pattern, A is supported on and below it (i + j >= k + 1) and B on and
above it (i + j <= k + 1); SUT pushes B strictly above (i + j <= k).
Indices in comments are 1-based to match the formulas; storage is
0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from hbn.exact.birkhoff import _perm_sign
from hbn.exact.field import PrimeTooSmallError
from hbn.exact.forms import BinaryForm
from hbn.splitting import HirzebruchClass

PATTERNS = ("FULL", "LU", "SUT", "IS_POINT")


@dataclass(frozen=True)
class DegreeGrid:
    """Entry degrees for the two matrices of a stratum."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    m: int
    delta: int
    e: Optional[tuple[int, ...]] = None
    f: Optional[tuple[int, ...]] = None

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
    return DegreeGrid(a=a, b=b, m=m, delta=sum(f) - sum(e), e=e, f=f)


def pattern_allows(pattern: str, k: int, mat: str, i: int, j: int) -> bool:
    """Whether entry (i, j) (0-based) of matrix 'A' or 'B' may be nonzero."""
    if pattern == "FULL":
        return True
    s = (i + 1) + (j + 1)
    if pattern == "LU":
        return s >= k + 1 if mat == "A" else s <= k + 1
    if pattern == "SUT":
        return s >= k + 1 if mat == "A" else s <= k
    raise ValueError(f"unknown pattern {pattern!r}")


@dataclass(frozen=True)
class MatrixPair:
    """Matrices (A, B) of binary forms following a degree grid and pattern."""

    A: tuple[tuple[BinaryForm, ...], ...]
    B: tuple[tuple[BinaryForm, ...], ...]
    grid: DegreeGrid
    pattern: str
    p: int

    @property
    def k(self) -> int:
        return self.grid.k

    def __post_init__(self):
        k = self.grid.k
        for i in range(k):
            for j in range(k):
                for mat, g in (("A", self.grid.a), ("B", self.grid.b)):
                    form = (self.A if mat == "A" else self.B)[i][j]
                    if not form.is_zero() and form.degree != g[i][j]:
                        raise ValueError(
                            f"{mat}[{i}][{j}] has degree {form.degree}, grid wants {g[i][j]}"
                        )


def _random_nonzero(degree: int, p: int, rng: random.Random) -> BinaryForm:
    # an allowed entry that samples to the zero form leaves the open
    # locus of the pattern, so redraw (chance 1/p^(deg+1) per attempt)
    form = BinaryForm.random(degree, p, rng)
    while form.is_zero():
        form = BinaryForm.random(degree, p, rng)
    return form


def sample_pair(grid: DegreeGrid, pattern: str, p: int, rng: random.Random) -> MatrixPair:
    """Pair in the open locus of the pattern: allowed entries are random
    nonzero forms of the grid degree, forced entries stay ZeroForm."""
    if pattern == "IS_POINT":
        return sample_is_point(grid, p, rng)[0]
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    k = grid.k
    A, B = [], []
    for i in range(k):
        arow, brow = [], []
        for j in range(k):
            da = grid.a[i][j] if pattern_allows(pattern, k, "A", i, j) else -1
            db = grid.b[i][j] if pattern_allows(pattern, k, "B", i, j) else -1
            arow.append(
                _random_nonzero(da, p, rng) if da >= 0 else BinaryForm.zero(grid.a[i][j], p)
            )
            brow.append(
                _random_nonzero(db, p, rng) if db >= 0 else BinaryForm.zero(grid.b[i][j], p)
            )
        A.append(tuple(arow))
        B.append(tuple(brow))
    return MatrixPair(A=tuple(A), B=tuple(B), grid=grid, pattern=pattern, p=p)


def split_form(degree: int, roots: list[int], p: int) -> BinaryForm:
    """Monic product of (t - root * s) over the given roots."""
    if degree != len(roots):
        raise ValueError("need exactly degree many roots")
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - r * c) % p
        coeffs = nxt
    return BinaryForm.homogenize(coeffs, degree, p)


def corner_row_limit(grid: DegreeGrid) -> int:
    """Largest r with b_{k-r,1} >= 0 (0 when the first column is all forced)."""
    k = grid.k
    r = 0
    for cand in range(1, k):
        if grid.b[k - cand - 1][0] >= 0:
            r = cand
    return r


def sample_is_point(
    grid: DegreeGrid, p: int, rng: random.Random
) -> tuple[MatrixPair, dict]:
    """The special inductive point: fixed split forms on the sub-anti-diagonal
    of B and in the matrix corner, generic entries elsewhere on the support.

    Support (1-based): B_{k-i,i} = F_i for 2 <= i <= k-1 (split, all roots
    distinct); A_{k,1} = G (split, roots distinct from every F_i);
    A_{i,k+1-i} for i <= k-2; A_{i,k} for i <= k-r-1 and i = k-1;
    B_{i,1} for k-r <= i <= k-1; A_{k,j} for 2 <= j <= k.  Everything
    else is identically zero.
    """
    k = grid.k
    if k < 3:
        raise ValueError("the inductive point needs k >= 3")
    r = corner_row_limit(grid)
    f_degrees = {i: grid.b[k - i - 1][i - 1] for i in range(2, k)}
    g_degree = grid.a[k - 1][0]
    if any(d < 0 for d in f_degrees.values()) or g_degree < 0:
        raise ValueError("grid does not admit the inductive point pattern")
    total_roots = sum(f_degrees.values()) + g_degree
    if total_roots > p:
        raise PrimeTooSmallError(
            f"the inductive point needs {total_roots} distinct roots, so p >= {total_roots}"
        )
    pool = rng.sample(range(p), total_roots)
    pos = 0
    Fs = {}
    for i in range(2, k):
        d = f_degrees[i]
        Fs[i] = (split_form(d, pool[pos : pos + d], p), pool[pos : pos + d])
        pos += d
    G_roots = pool[pos : pos + g_degree]
    G = split_form(g_degree, G_roots, p)

    A = [[BinaryForm.zero(grid.a[i][j], p) for j in range(k)] for i in range(k)]
    B = [[BinaryForm.zero(grid.b[i][j], p) for j in range(k)] for i in range(k)]
    for i in range(2, k):
        B[k - i - 1][i - 1] = Fs[i][0]
    A[k - 1][0] = G

    def rand_entry(deg):
        return _random_nonzero(deg, p, rng) if deg >= 0 else None

    for i in range(1, k - 1):  # anti-diagonal rows 1..k-2
        form = rand_entry(grid.a[i - 1][k - i])
        if form is not None:
            A[i - 1][k - i] = form
    for i in sorted(set(range(1, k - r)) | {k - 1}):  # last column of A
        form = rand_entry(grid.a[i - 1][k - 1])
        if form is not None:
            A[i - 1][k - 1] = form
    for i in range(max(1, k - r), k):  # first column of B, rows k-r..k-1
        form = rand_entry(grid.b[i - 1][0])
        if form is not None:
            B[i - 1][0] = form
    for j in range(2, k + 1):  # bottom row of A
        form = rand_entry(grid.a[k - 1][j - 1])
        if form is not None:
            A[k - 1][j - 1] = form

    pair = MatrixPair(
        A=tuple(tuple(row) for row in A),
        B=tuple(tuple(row) for row in B),
        grid=grid,
        pattern="IS_POINT",
        p=p,
    )
    meta = {
        "r": r,
        "F_roots": {i: Fs[i][1] for i in Fs},
        "G_roots": G_roots,
        "F_forms": {i: Fs[i][0] for i in Fs},
        "G_form": G,
    }
    return pair, meta


# ---------------------------------------------------------------------------
# the determinant map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryFormCurve:
    """Curve of class kH + delta*F cut out by sum of P_i(s,t) x^i y^(k-i)."""

    cls: HirzebruchClass
    P: tuple[BinaryForm, ...]

    def __post_init__(self):
        k, m, d = self.cls.k, self.cls.m, self.cls.delta
        if len(self.P) != k + 1:
            raise ValueError("need k+1 coefficient forms")
        for i, form in enumerate(self.P):
            if form.degree != d + (k - i) * m:
                raise ValueError(f"P_{i} degree {form.degree} != {d + (k - i) * m}")
        if all(form.is_zero() for form in self.P):
            raise ValueError("identically zero curve rejected")

    @property
    def p(self) -> int:
        return self.P[0].p


def det_xy(pair: MatrixPair, rows: list[int], cols: list[int]) -> list[BinaryForm]:
    """det of the submatrix of Ax + By on given rows/cols, graded by x-power.

    Returns [Q_0, ..., Q_n] with Q_i the coefficient of x^i y^(n-i).  All
    surviving permutation terms in slot i share one declared degree (the
    transversal degree sum is pairing-independent), so the sums are
    exact.  Empty slots get zero forms whose degrees follow from the
    nonempty ones, falling back to the grid when the block vanishes.
    """
    n = len(rows)
    if len(cols) != n:
        raise ValueError("block must be square")
    p = pair.p
    m = pair.grid.m
    slots: dict[int, BinaryForm] = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        acc: dict[int, BinaryForm] = {0: BinaryForm.constant(sign, p)}
        for step in range(n):
            r, c = rows[step], cols[perm[step]]
            fa, fb = pair.A[r][c], pair.B[r][c]
            nxt: dict[int, BinaryForm] = {}
            for i, q in acc.items():
                if not fb.is_zero():
                    _slot_add(nxt, i, q.mul(fb))
                if not fa.is_zero():
                    _slot_add(nxt, i + 1, q.mul(fa))
            acc = nxt
            if not acc:
                break
        for i, q in acc.items():
            _slot_add(slots, i, q)
    out = []
    anchor = next(iter(slots.items()), None)
    for i in range(n + 1):
        q = slots.get(i)
        if q is not None:
            out.append(q)
        elif anchor is not None:
            i0, q0 = anchor
            out.append(BinaryForm.zero(q0.degree + (i0 - i) * m, p))
        else:
            delta_sub = sum(pair.grid.a[r][c] for r, c in zip(rows, cols))
            out.append(BinaryForm.zero(delta_sub + (n - i) * m, p))
    return out


def _slot_add(d: dict[int, BinaryForm], i: int, q: BinaryForm) -> None:
    cur = d.get(i)
    d[i] = q if cur is None else cur.add(q)


def phi(pair: MatrixPair) -> BinaryFormCurve:
    """The determinant map: (A, B) -> det(Ax + By) as a curve."""
    k = pair.k
    grid = pair.grid
    dets = det_xy(pair, list(range(k)), list(range(k)))
    cls = HirzebruchClass(m=grid.m, k=k, delta=grid.delta)
    fixed = []
    for i, form in enumerate(dets):
        want = grid.delta + (k - i) * grid.m
        if form.is_zero() and form.degree != want:
            form = BinaryForm.zero(want, pair.p)
        fixed.append(form)
    return BinaryFormCurve(cls=cls, P=tuple(fixed))


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

    DIVISIBLE_BY_Y: the x^k coefficient of det vanishes identically, so
    y divides the output polynomial.  BLOCK_FACTOR: det equals
    +/- det(top-right block) * det(complement), hence the block minor
    divides it.  Works directly on determinants so that even degenerate
    pairs (det identically zero) are handled.
    """
    verdict = forced_reducibility(pair.grid)
    k = pair.k
    if verdict.verdict == "NONE":
        return False
    dets = det_xy(pair, list(range(k)), list(range(k)))
    if verdict.verdict == "DIVISIBLE_BY_Y":
        return dets[k].is_zero()
    i0 = min(verdict.block, key=lambda iv: iv[1])[0]
    top = det_xy(pair, list(range(i0)), list(range(k - i0, k)))
    bottom = det_xy(pair, list(range(i0, k)), list(range(k - i0)))
    # det M = (-1)^(i0 * (k - i0)) * det(top-right) * det(bottom-left)
    sign = -1 if (i0 * (k - i0)) % 2 else 1
    prod = xy_mul(top, bottom)
    for i in range(k + 1):
        got = dets[i]
        expect = prod[i].scale(sign)
        if got.is_zero() and expect.is_zero():
            continue
        if got.is_zero() != expect.is_zero():
            return False
        if not got.add(expect.neg()).is_zero():
            return False
    return True


def xy_mul(q1: list[BinaryForm], q2: list[BinaryForm]) -> list[BinaryForm]:
    """Product of two x-graded form vectors (convolution in the x power)."""
    n1, n2 = len(q1) - 1, len(q2) - 1
    out: list[BinaryForm] = []
    for i in range(n1 + n2 + 1):
        acc = None
        for i1 in range(max(0, i - n2), min(n1, i) + 1):
            term = q1[i1].mul(q2[i - i1])
            acc = term if acc is None else acc.add(term)
        out.append(acc)
    return out


def p1_pk_closed_form(pair: MatrixPair) -> tuple[BinaryForm, BinaryForm]:
    """Closed forms of the x*y^(k-1) and x^k coefficients on the SUT locus.

    P_1 = sign * B_{1,k-1} ... B_{k-1,1} * A_{k,k} where the sign is the
    parity of the reversal on k-1 letters; P_k carries the reversal sign
    on k letters times the anti-diagonal product of A.
    """
    if pair.pattern not in ("SUT", "IS_POINT"):
        raise ValueError("closed form requires the strictly-upper pattern")
    k = pair.k
    p = pair.p
    sign1 = -1 if ((k - 1) * (k - 2) // 2) % 2 else 1
    p1 = BinaryForm.constant(sign1, p)
    for i in range(1, k):
        p1 = p1.mul(pair.B[i - 1][k - i - 1])
    p1 = p1.mul(pair.A[k - 1][k - 1])
    sign_k = -1 if (k * (k - 1) // 2) % 2 else 1
    pk = BinaryForm.constant(sign_k, p)
    for i in range(1, k + 1):
        pk = pk.mul(pair.A[i - 1][k - i])
    return p1, pk


def pair_to_json_dict(pair: MatrixPair) -> dict:
    return {
        "p": pair.p,
        "m": pair.grid.m,
        "k": pair.k,
        "delta": pair.grid.delta,
        "A": [
            [list(form.coeffs) if form.coeffs else [] for form in row] for row in pair.A
        ],
        "B": [
            [list(form.coeffs) if form.coeffs else [] for form in row] for row in pair.B
        ],
    }


def pair_from_json_dict(doc: dict) -> MatrixPair:
    """Rebuild a pair from the wire format.

    Degrees are inferred from coefficient list lengths; entries sent as
    [] keep a negative declared degree, which is all the determinant
    path needs (zero entries never enter a product).
    """
    p, m, k = doc["p"], doc["m"], doc["k"]

    def to_form(coeffs):
        if coeffs:
            return BinaryForm(len(coeffs) - 1, tuple(coeffs), p)
        return BinaryForm.zero(-1, p)

    A = tuple(tuple(to_form(c) for c in row) for row in doc["A"])
    B = tuple(tuple(to_form(c) for c in row) for row in doc["B"])
    a = tuple(tuple(form.degree for form in row) for row in A)
    b = tuple(tuple(form.degree for form in row) for row in B)
    grid = DegreeGrid(a=a, b=b, m=m, delta=doc["delta"], e=None, f=None)
    return MatrixPair(A=A, B=B, grid=grid, pattern="FULL", p=p)


def curve_to_json_dict(curve: BinaryFormCurve) -> dict:
    return {
        "p": curve.P[0].p,
        "m": curve.cls.m,
        "k": curve.cls.k,
        "delta": curve.cls.delta,
        "P": [list(form.coeffs) if form.coeffs else [] for form in curve.P],
    }


def curve_from_json_dict(doc: dict) -> BinaryFormCurve:
    """Inverse of curve_to_json_dict; each degree comes from the class."""
    p = doc["p"]
    cls = HirzebruchClass(m=doc["m"], k=doc["k"], delta=doc["delta"])
    P = tuple(
        BinaryForm(cls.delta + (cls.k - i) * cls.m, tuple(coeffs), p)
        for i, coeffs in enumerate(doc["P"])
    )
    return BinaryFormCurve(cls=cls, P=P)
