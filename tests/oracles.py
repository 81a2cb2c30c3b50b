"""Oracles for the tests: slow, independent routes to what src/ computes.

Permutation expansion.  det(Ax + By), its block minors and single
columns of the differential by expanding over all k! permutations in
the oracles' own form arithmetic, `BinaryForm` (src/ keeps a form as its
bare coefficient tuple and has no such type).  They share no code with
the evaluation kernels of hbn.determinantal and hbn.differential, which
is what makes them useful as cross-checks; they are far too slow for
anything else.

Selectors.  `selector` gives the tangent-subspace masks of
hbn.differential (`selector_mask`) and the two of the inductive step that
only tests read, T_DOUBLE_PRIME and T_INDUCTIVE.

Curve checks.  `discriminant_check` and `cokernel_rank_check` (with
`curve_points`, `point_on_curve`, `pair_rank_at_point` and
`fp2_matrix_rank`) test two implications of a SMOOTH certificate that
`hbn sample` relies on without computing them (hbn.curves docstring).
They share `resultant_v` and the factoring of hbn.exact.poly with src/,
so they check the implications, not that arithmetic; where p is at or
below `resultant_v`'s degree bound, `discriminant_check` takes
`sympy_resultant_v`, which needs no bound.

Four charts.  `four_charts` certifies smoothness by the Jacobian
analysis of all four torus charts (`four_chart_polys` derives t_y and
s_y from the two charts `chart_polys` gives), the reference for
`hbn.curves`' one chart plus three boundary gcds.  It shares
`_analyze_chart` with src/ (its multiple-component scan and its
transposed pass included), so it checks the boundary reduction, not the
chart analysis.  Like
`smoothness` it draws nothing random and answers SMOOTH or SINGULAR.

Quotient fields.  `QuotientField` is the field F_p[x]/(q) as a class,
and `qgcd` (with `qtrim` and `qdivmod`) runs Euclid over any object with
zero/sub/mul/inv/is_zero: the reference that hbn.exact.poly2's
`gcd_mod` on reduced coefficient lists is held to, and the F_p^2
arithmetic (q = w^2 - nr) of `point_on_curve` and the curve tests.  It
multiplies and reduces with hbn.exact.poly's `pmul` and `pdivmod`, as
`gcd_mod` does, so it checks the Euclid over the extension, not that
arithmetic.

Integer determinants.  `bareiss_det` is the fraction-free (Bareiss)
determinant over Z in Python ints; reduced mod p it is the reference
for `batch_det_mod`, whose elimination mod p it shares nothing with.

Transition matrices.  `TransitionMatrix` is a square Laurent matrix
over F_p, the gluing of a bundle on P^1, and `birkhoff_splitting` reads
its splitting type by Birkhoff column reduction; the tests hold it to
section counts and to glued bundles of known type, which
`transition_product`, `transition_diagonal` and `random_unimodular`
build.  Its kernel vectors come from `nullspace_vector`, a Gauss-Jordan
elimination on Python ints that shares no code with hbn.exact.linalg.
`TransitionMatrix.det` takes `batch_det_mod` and `interp_nodes` from
src/.  Nothing in hbn reads splitting types off a gluing.

Surface cohomology.  `SurfaceDivisor`, `intersection`, `h0_surface` and
`h1_surface` are the closed toric formulas for line bundles on F_m, and
`h0_profile_splitting` recovers the type of a pushforward from twisted
section counts (UNKNOWN where a twist has h1).  Criterion 10 holds the
profile to `structure_sheaf_type`, and the curve tests hold
`curves.connectedness`, a closed form, to 1 + h1 of O(-C).

Closed forms.  `p1_pk_closed_form` writes the outer coefficients P_1
and P_k of det(Ax + By) on the SUT locus as signed products of entries,
`chi_surface` is surface Riemann-Roch, `h2_surface` is Serre duality
and `directrix` is the class of the negative section.  The tests hold
`phi` and the surface cohomology above to these formulas; nothing in
hbn calls them.
"""

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Union

import numpy as np
import sympy

from hbn.curves import (
    SmoothnessCertificate,
    _analyze_chart,
    _deriv_v,
    _vtrim,
    chart_polys,
    connectedness,
)
from hbn.determinantal import (
    BinaryFormCurve,
    MatrixPair,
    forced_reducibility,
)
from hbn.differential import selector_mask
from hbn.exact.field import PrimeTooSmallError, inv_mod, quadratic_nonresidue
from hbn.exact.linalg import batch_det_mod, matrix_rank
from hbn.exact.poly import (
    Poly,
    _eval_at_nodes,
    interp_nodes,
    irreducible_factors,
    pdeg,
    pdivmod,
    peval,
    pmod,
    pmonic,
    pmul,
    pscale,
    psub,
    ptrim,
    quadratic_roots,
)
from hbn.exact.poly2 import resultant_v
from hbn.splitting import HirzebruchClass, SplittingType


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of declared degree in (s, t) over F_p.

    Attributes:
        degree: declared degree; may be negative only for the zero form.
        coeffs: tuple (c_0, ..., c_d) for sum c_i s^(d-i) t^i, or () for
            the zero form of any declared degree.
        p: field characteristic.
    """

    degree: int
    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.coeffs:
            if self.degree < 0 or len(self.coeffs) != self.degree + 1:
                raise ValueError("coefficient count must be degree + 1")
            object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))
            if not any(self.coeffs):
                object.__setattr__(self, "coeffs", ())

    @classmethod
    def zero(cls, degree: int, p: int) -> "BinaryForm":
        return cls(degree, (), p)

    @classmethod
    def constant(cls, c: int, p: int) -> "BinaryForm":
        return cls(0, (c % p,), p) if c % p else cls.zero(0, p)

    @classmethod
    def random(cls, degree: int, p: int, rng: random.Random) -> "BinaryForm":
        if degree < 0:
            return cls.zero(degree, p)
        return cls(degree, tuple(rng.randrange(p) for _ in range(degree + 1)), p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} vs {other.degree}")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        return BinaryForm(self.degree, out, self.p)

    def neg(self) -> "BinaryForm":
        return self.scale(-1)

    def scale(self, c: int) -> "BinaryForm":
        c %= self.p
        if c == 0 or self.is_zero():
            return BinaryForm.zero(self.degree, self.p)
        return BinaryForm(self.degree, tuple(a * c % self.p for a in self.coeffs), self.p)

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return BinaryForm.zero(d, self.p)
        out = pmul(list(self.coeffs), list(other.coeffs), self.p)
        out = out + [0] * (d + 1 - len(out))
        return BinaryForm(d, tuple(out), self.p)

    def eval(self, s0: int, t0: int) -> int:
        """Evaluate at a point of the projective line given in coordinates."""
        if self.is_zero():
            return 0
        acc = 0
        p = self.p
        for i, c in enumerate(self.coeffs):
            acc = (acc + c * pow(s0, self.degree - i, p) * pow(t0, i, p)) % p
        return acc

    def dehomogenize_s(self) -> Poly:
        """Set s = 1: univariate poly in t, index = power of t."""
        return ptrim(list(self.coeffs))

    @classmethod
    def homogenize(cls, f: Poly, degree: int, p: int) -> "BinaryForm":
        """Pad a univariate poly in t up to the declared degree."""
        f = ptrim(list(f))
        if not f:
            return cls.zero(degree, p)
        if len(f) - 1 > degree:
            raise ValueError("polynomial degree exceeds declared degree")
        return cls(degree, tuple(f + [0] * (degree + 1 - len(f))), p)


def entry_form(pair: MatrixPair, mat: int, i: int, j: int) -> BinaryForm:
    """Entry (i, j) (0-based) of A (mat = 0) or B (mat = 1) as a form of
    its grid degree."""
    degree = (pair.grid.a, pair.grid.b)[mat][i][j]
    if degree < 0:
        return BinaryForm.zero(degree, pair.p)
    return BinaryForm(degree, tuple(pair.coeffs[mat, i, j, : degree + 1].tolist()), pair.p)


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _entry_forms(pair: MatrixPair) -> tuple[list[list[BinaryForm]], ...]:
    """A and B as nested lists of entry forms."""
    k = pair.k
    return tuple(
        [[entry_form(pair, mat, r, c) for c in range(k)] for r in range(k)] for mat in (0, 1)
    )


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
    A, B = _entry_forms(pair)
    slots: dict[int, BinaryForm] = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        acc: dict[int, BinaryForm] = {0: BinaryForm.constant(sign, p)}
        for step in range(n):
            r, c = rows[step], cols[perm[step]]
            fa, fb = A[r][c], B[r][c]
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


def _slot_add(d: dict, i: int, q) -> None:
    cur = d.get(i)
    d[i] = q if cur is None else cur.add(q)


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


def phi_by_permutations(pair: MatrixPair) -> BinaryFormCurve:
    """det(Ax + By) as a curve, from det_xy."""
    k = pair.k
    grid = pair.grid
    dets = det_xy(pair, list(range(k)), list(range(k)))
    cls = HirzebruchClass(m=grid.m, k=k, delta=grid.delta)
    P = tuple(
        form.coeffs or (0,) * (grid.delta + (k - i) * grid.m + 1) for i, form in enumerate(dets)
    )
    return BinaryFormCurve(cls=cls, P=P, p=pair.p)


def reducibility_witness_by_permutations(pair: MatrixPair) -> bool:
    """The forced factorization of forced_reducibility, checked on det_xy
    forms slot by slot."""
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


@dataclass(frozen=True)
class DualForm:
    """base + eps * epsilon_part with eps^2 = 0; both parts share a degree."""

    base: BinaryForm
    epsilon_part: BinaryForm

    def __post_init__(self):
        if self.base.degree != self.epsilon_part.degree:
            raise ValueError("dual parts must share a degree")
        if self.base.p != self.epsilon_part.p:
            raise ValueError("dual parts must share a field")

    @classmethod
    def lift(cls, base: BinaryForm) -> "DualForm":
        return cls(base, BinaryForm.zero(base.degree, base.p))

    def add(self, other: "DualForm") -> "DualForm":
        return DualForm(self.base.add(other.base), self.epsilon_part.add(other.epsilon_part))

    def mul(self, other: "DualForm") -> "DualForm":
        eps = self.base.mul(other.epsilon_part).add(self.epsilon_part.mul(other.base))
        return DualForm(self.base.mul(other.base), eps)


def dphi_column_dual(pair: MatrixPair, coord) -> np.ndarray:
    """One column of the differential: dual-number determinant with a single eps.

    Expands det((A + eps A')x + (B + eps B')y) by permutations with
    DualForm arithmetic, no cofactors anywhere, and reads off the eps
    part of P_0, ..., P_k, stacked in the block order of
    hbn.differential.dphi_matrix.  coord is a tangent_basis row
    (matrix, i, j, t-power), matrix 0 for A' and 1 for B'.
    """
    mat, r0, c0, jj = map(int, coord)
    mname = "AB"[mat]
    grid = pair.grid
    k = grid.k
    p = pair.p
    deg = (grid.a, grid.b)[mat][r0][c0]
    mono = BinaryForm.homogenize([0] * jj + [1], deg, p)
    offsets = {}
    total = 0
    for blk in range(k + 1):
        offsets[blk] = total
        total += grid.delta + (k - blk) * grid.m + 1
    vec = np.zeros(total, dtype=np.int64)
    A, B = _entry_forms(pair)
    slots: dict[int, DualForm] = {}
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        acc = {0: DualForm.lift(BinaryForm.constant(sign, p))}
        for step in range(k):
            r, c = step, perm[step]
            fa = DualForm(
                A[r][c],
                mono if (mname, r, c) == ("A", r0, c0) else BinaryForm.zero(grid.a[r][c], p),
            )
            fb = DualForm(
                B[r][c],
                mono if (mname, r, c) == ("B", r0, c0) else BinaryForm.zero(grid.b[r][c], p),
            )
            nxt: dict[int, DualForm] = {}
            for i, q in acc.items():
                if not (fb.base.is_zero() and fb.epsilon_part.is_zero()):
                    _slot_add(nxt, i, q.mul(fb))
                if not (fa.base.is_zero() and fa.epsilon_part.is_zero()):
                    _slot_add(nxt, i + 1, q.mul(fa))
            acc = nxt
            if not acc:
                break
        for i, q in acc.items():
            _slot_add(slots, i, q)
    for i, q in slots.items():
        eps = q.epsilon_part
        if eps.is_zero():
            continue
        for idx, coeff in enumerate(eps.coeffs):
            vec[offsets[i] + idx] = coeff
    return vec


# the tangent subspaces of the inductive step: T_DOUBLE_PRIME is T_PRIME
# without the lower-right entry of A', and T_INDUCTIVE is T_DOUBLE_PRIME
# without the first column and the bottom row, so T_DOUBLE_PRIME splits as
# T_CORNER plus T_INDUCTIVE; no code in src/ reads these two
SELECTORS = ("FULL_PRIME", "T_PRIME", "T_DOUBLE_PRIME", "T_CORNER", "T_INDUCTIVE")


def selector(name: str, k: int) -> np.ndarray:
    """hbn.differential.selector_mask, plus T_DOUBLE_PRIME and T_INDUCTIVE."""
    if name not in ("T_DOUBLE_PRIME", "T_INDUCTIVE"):
        return selector_mask(name, k)
    mask = selector_mask("T_PRIME", k)
    mask[0, k - 1, k - 1] = False
    if name == "T_INDUCTIVE":
        mask[:, k - 1, :] = mask[:, :, 0] = False
    return mask


# ---------------------------------------------------------------------------
# quotient fields
# ---------------------------------------------------------------------------


class QuotientField:
    """The field F_p[x]/(q) for monic irreducible q.

    Elements are int tuples of length deg q (coefficients of 1, x, ...).
    Degree 1 collapses to arithmetic in F_p itself, with x identified
    with the root -q[0].
    """

    def __init__(self, q: Poly, p: int):
        self.q = pmonic(q, p)
        self.p = p
        self.deg = pdeg(q)
        if self.deg < 1:
            raise ValueError("modulus must be nonconstant")
        self.zero = (0,) * self.deg

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = pmul(list(a), list(b), self.p)
        r = pmod(prod, self.q, self.p)
        return tuple(r) + (0,) * (self.deg - len(r))

    def inv(self, a):
        # extended euclid in F_p[x]
        p = self.p
        r0, r1 = self.q[:], ptrim(list(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero in quotient field")
        s0: Poly = []
        s1: Poly = [1]
        while r1:
            quo, rem = pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, psub(s0, pmul(quo, s1, p), p)
        inv_lead = inv_mod(r0[-1], p)
        s0 = pscale(s0, inv_lead, p)
        s0 = pmod(s0, self.q, p)
        return tuple(s0) + (0,) * (self.deg - len(s0))

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# polynomials in one variable with coefficients in an arbitrary field object
# (anything with zero/sub/mul/inv/is_zero, e.g. QuotientField)
# ---------------------------------------------------------------------------


def qtrim(f: list, K) -> list:
    n = len(f)
    while n > 0 and K.is_zero(f[n - 1]):
        n -= 1
    return f[:n]


def qdivmod(f: list, g: list, K) -> tuple[list, list]:
    g = qtrim(g, K)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = qtrim(f, K)[:]
    dg = len(g) - 1
    lead_inv = K.inv(g[-1])
    q = [K.zero] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if K.is_zero(c):
            continue
        c = K.mul(c, lead_inv)
        q[i - dg] = c
        for j, b in enumerate(g):
            f[i - dg + j] = K.sub(f[i - dg + j], K.mul(c, b))
    return qtrim(q, K), qtrim(f, K)


def qgcd(f: list, g: list, K) -> list:
    f, g = qtrim(f, K), qtrim(g, K)
    while g:
        f, g = g, qdivmod(f, g, K)[1]
    if f:
        lead_inv = K.inv(f[-1])
        f = [K.mul(c, lead_inv) for c in f]
    return f


# ---------------------------------------------------------------------------
# four charts
# ---------------------------------------------------------------------------

CHARTS = ("t_x", "t_y", "s_x", "s_y")


def four_chart_polys(curve: BinaryFormCurve) -> dict[str, list[Poly]]:
    """`chart_polys` plus t_y (s = x = 1) and s_y (t = x = 1), which
    index the fiber variable y: the x-charts read backwards."""
    polys = chart_polys(curve)
    return {**polys, "t_y": polys["t_x"][::-1], "s_y": polys["s_x"][::-1]}


def four_charts(curve: BinaryFormCurve) -> SmoothnessCertificate:
    """Smoothness from all four torus charts, analysed in CHARTS order:
    the first SINGULAR chart, else SMOOTH.  A chart raises
    PrimeTooSmallError only when it reads a resultant too large for p."""
    p = curve.p
    polys = four_chart_polys(curve)
    for name in CHARTS:
        status, wit = _analyze_chart(polys[name], p)
        if status == "singular":
            return SmoothnessCertificate("SINGULAR", chart=name, witness=wit)
    return SmoothnessCertificate("SMOOTH")


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------


def sympy_resultant_v(f: list[list[int]], g: list[list[int]], p: int) -> list[int]:
    """sympy.resultant in v of coefficient lists over Z[u], reduced mod p.

    Exact, so unlike `resultant_v` it needs no prime above a degree bound.
    The leading v-coefficients here are nonzero polynomials, so sympy's
    degrees are the declared ones.  sympy (1.14) drops the sign
    (-1)^(deg f * deg g) when deg f < deg g, e.g. it gives -1 for
    Res(v + 1, v^3 + 2) = 1, so the larger degree goes first and the
    sign is restored by hand.
    """
    u, v = sympy.symbols("u v")
    fs = sum(sum(c * u**i for i, c in enumerate(cf)) * v**j for j, cf in enumerate(f))
    gs = sum(sum(c * u**i for i, c in enumerate(cg)) * v**j for j, cg in enumerate(g))
    n, m = len(f) - 1, len(g) - 1
    if n >= m:
        res = sympy.resultant(fs, gs, v)
    else:
        res = (-1) ** (n * m) * sympy.resultant(gs, fs, v)
    res = sympy.Poly(res, u)
    return ptrim([int(c) % p for c in res.all_coeffs()[::-1]])


def discriminant_check(curve: BinaryFormCurve, resultant=resultant_v) -> tuple[int, int, bool]:
    """Degree of the discriminant of the fiber polynomial vs 2g + 2k - 2.

    The resultant of P and dP/dx in the fiber variable is P_k times the
    discriminant; root count at s = 0 is recovered from the mirrored
    computation.  An oracle only: SMOOTH with P_k != 0 implies
    (E, E, True) (`hbn.curves` module docstring), so `hbn sample` does not
    call it.  `resultant` takes the two resultants in v; the default
    raises PrimeTooSmallError where its degree bound reaches p, and
    `sympy_resultant_v` answers at every p.
    Returns (deg_disc, expected, ok).
    """
    cls = curve.cls
    k, m, delta = cls.k, cls.m, cls.delta
    p = curve.p
    expected = 2 * (k - 1) * delta + k * (k - 1) * m
    if not any(curve.P[k]):
        raise ValueError("fiber polynomial must have full degree (P_k != 0)")

    charts = chart_polys(curve)
    sides = [_vtrim(charts[name]) for name in ("t_x", "s_x")]
    quotients = []
    for fv, r in zip(sides, [resultant(fv, _deriv_v(fv, p), p) for fv in sides]):
        quo, rem = pdivmod(r, fv[-1], p)
        if not r or rem:
            return (-1, expected, False)
        quotients.append(quo)
    t_side, s_side = quotients
    ord_inf = next((i for i, c in enumerate(s_side) if c), None)
    if ord_inf is None:
        return (-1, expected, False)
    deg_disc = pdeg(t_side) + ord_inf
    return (deg_disc, expected, deg_disc == expected)


# ---------------------------------------------------------------------------
# points and cokernel ranks
# ---------------------------------------------------------------------------


def curve_points(curve: BinaryFormCurve, n_points: int, rng: random.Random) -> list[dict]:
    """Up to n_points points of the curve over F_p^2.

    A point is {'st': (s, t), 'xy': (x, y)}.  The base point (s, t) is a
    pair of F_p ints: every fiber drawn is F_p-rational.  x is an F_p^2
    pair (a, b) meaning a + b*w, with w^2 the standard nonresidue and
    b = 0 for a rational root; y is an F_p int, 1 except at the point
    x = infinity ((1, 0), 0).  Fibers are drawn in random order without
    replacement, lazily, so the cost does not grow with p.  Each fiber is
    factored once and contributes the point at x = infinity when the top
    coefficient vanishes, the root of each linear factor and the two
    roots of each quadratic factor.
    """
    p = curve.p
    k = curve.cls.k
    nr = quadratic_nonresidue(p)
    pts: list[dict] = []
    by_t = chart_polys(curve)["t_x"]

    def fiber_poly(t0: Optional[int]) -> list[int]:
        if t0 is None:  # the fiber s = 0
            return [c[-1] for c in curve.P]
        return [peval(c, t0, p) for c in by_t]

    # fibers are drawn without replacement as needed; draw p is s = 0
    seen: set[int] = set()
    while len(pts) < n_points and len(seen) <= p:
        draw = rng.randrange(p + 1)
        if draw in seen:
            continue
        seen.add(draw)
        t0 = None if draw == p else draw
        st = (0, 1) if t0 is None else (1, t0)
        fib = fiber_poly(t0)
        trimmed = ptrim(list(fib))
        if not trimmed:
            continue  # the whole fiber lies on the curve; skip as non-reduced data
        if fib[k] % p == 0:
            pts.append({"st": st, "xy": ((1, 0), 0)})
        for q, _ in irreducible_factors(trimmed, p):
            if pdeg(q) == 1:
                pts.append({"st": st, "xy": (((-q[0]) % p, 0), 1)})
            elif pdeg(q) == 2:
                pts.extend({"st": st, "xy": (x0, 1)} for x0 in quadratic_roots(q, p, nr))
    return pts[:n_points]


def point_on_curve(curve: BinaryFormCurve, pt: dict) -> bool:
    """sum P_i(s,t) x^i y^(k-i) vanishes: Horner in x over F_p^2."""
    p = curve.p
    k = curve.cls.k
    F = QuotientField([-quadratic_nonresidue(p) % p, 0, 1], p)  # F_p^2
    (s0, t0), (x0, y0) = pt["st"], pt["xy"]
    acc = F.zero
    for i in range(k, -1, -1):
        form = BinaryForm(len(curve.P[i]) - 1, curve.P[i], p)
        c = form.eval(s0, t0) * pow(y0, k - i, p) % p
        acc = F.add(F.mul(acc, x0), (c, 0))
    return F.is_zero(acc)


def pair_rank_at_point(pair: MatrixPair, pt: dict) -> int:
    """Rank over F_p^2 of A*x + B*y at the point.

    A and B are evaluated at the F_p base point; with x = a + b*w the
    matrix is (A*a + B*y) + w*(A*b).
    """
    p, k = pair.p, pair.k
    (s0, t0), ((a, b), y0) = pt["st"], pt["xy"]
    va, vb = (
        [[entry_form(pair, mat, i, j).eval(s0, t0) for j in range(k)] for i in range(k)]
        for mat in (0, 1)
    )
    re = [[(u * a + v * y0) % p for u, v in zip(ra, rb)] for ra, rb in zip(va, vb)]
    im = [[u * b % p for u in ra] for ra in va]
    return fp2_matrix_rank(re, im, p, quadratic_nonresidue(p))


def cokernel_rank_check(
    pair: MatrixPair,
    curve: BinaryFormCurve,
    n_points: int,
    rng: Optional[random.Random] = None,
) -> bool:
    """At sampled curve points the evaluated matrix has rank exactly k-1.

    Raises if no points are found (inconclusive rather than vacuous).
    """
    rng = rng or random.Random(0)
    pts = curve_points(curve, n_points, rng)
    if not pts:
        raise RuntimeError("no rational or quadratic points found; inconclusive")
    k = pair.k
    for pt in pts:
        assert point_on_curve(curve, pt)
        if pair_rank_at_point(pair, pt) != k - 1:
            return False
    return True

def fp2_matrix_rank(re, im, p: int, nr: int) -> int:
    """Rank over F_p^2 of the matrix re + w*im, with w^2 = nr.

    Uses the regular representation: each entry a + w*b becomes the 2x2
    block [[a, nr*b], [b, a]], and the F_p rank of the blown-up matrix is
    exactly twice the F_p^2 rank.
    """
    a = np.asarray(re, dtype=np.int64) % p
    b = np.asarray(im, dtype=np.int64) % p
    if a.shape != b.shape:
        raise ValueError("real and imaginary parts must share a shape")
    rows, cols = a.shape
    big = np.zeros((2 * rows, 2 * cols), dtype=np.int64)
    big[0::2, 0::2] = a
    big[0::2, 1::2] = b * nr % p
    big[1::2, 0::2] = b
    big[1::2, 1::2] = a
    r = matrix_rank(big, p)
    assert r % 2 == 0
    return r // 2


def p1_pk_closed_form(pair: MatrixPair) -> tuple[BinaryForm, BinaryForm]:
    """Closed forms of the x*y^(k-1) and x^k coefficients on the SUT locus.

    P_1 = sign * B_{1,k-1} ... B_{k-1,1} * A_{k,k} where the sign is the
    parity of the reversal on k-1 letters; P_k carries the reversal sign
    on k letters times the anti-diagonal product of A.
    """
    if pair.pattern != "SUT":
        raise ValueError("closed form requires the strictly-upper pattern")
    k = pair.k
    p = pair.p
    sign1 = -1 if ((k - 1) * (k - 2) // 2) % 2 else 1
    p1 = BinaryForm.constant(sign1, p)
    for i in range(1, k):
        p1 = p1.mul(entry_form(pair, 1, i - 1, k - i - 1))
    p1 = p1.mul(entry_form(pair, 0, k - 1, k - 1))
    sign_k = -1 if (k * (k - 1) // 2) % 2 else 1
    pk = BinaryForm.constant(sign_k, p)
    for i in range(1, k + 1):
        pk = pk.mul(entry_form(pair, 0, i - 1, k - i))
    return p1, pk


# ---------------------------------------------------------------------------
# line bundles on the surface
# ---------------------------------------------------------------------------

UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SurfaceDivisor:
    """Divisor class a*H + b*F."""

    a: int
    b: int

    def sub(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return SurfaceDivisor(self.a - other.a, self.b - other.b)


def canonical_divisor(m: int) -> SurfaceDivisor:
    return SurfaceDivisor(-2, m - 2)


def intersection(d1: SurfaceDivisor, d2: SurfaceDivisor, m: int) -> int:
    # H.H = m, H.F = 1, F.F = 0
    return d1.a * d2.a * m + d1.a * d2.b + d1.b * d2.a


def h0_surface(d: SurfaceDivisor, m: int) -> int:
    if d.a < 0:
        return 0
    return sum(max(0, d.b + i * m + 1) for i in range(d.a + 1))


def h1_surface(d: SurfaceDivisor, m: int) -> int:
    if d.a >= 0:
        return sum(max(0, -(d.b + i * m) - 1) for i in range(d.a + 1))
    if d.a == -1:
        return 0
    # Serre duality: h^1(d) = h^1(K - d), and K - d has nonnegative
    # H-coefficient here
    kd = canonical_divisor(m).sub(d)
    return sum(max(0, -(kd.b + i * m) - 1) for i in range(kd.a + 1))


def h0_profile_splitting(cls: HirzebruchClass, divisor: SurfaceDivisor) -> Union[SplittingType, str]:
    """Splitting type of the pushforward of O_C(divisor) along the ruling.

    Section counts h(n) = h0(C, O(divisor + nF)) are computed from the
    surface via the restriction sequence whenever h1 of the ambient twist
    vanishes; when the twist has negative degree on C the count is 0
    outright (the class is connected).  First differences recover
    #{i: d_i >= -n}, whose jumps give the degree multiset.  The twists
    run over n in [-reach, reach], a reach computed from the class and
    the divisor.  Returns UNKNOWN when validity fails somewhere needed or
    the jumps do not saturate inside that window.
    """
    m, k, delta = cls.m, cls.k, cls.delta
    C = SurfaceDivisor(k, delta)
    reach = (k - 1) * m + delta + (abs(divisor.a) + 1) * (m + 2) + abs(divisor.b) + k + 3
    lo, hi = -reach, reach
    deg_on_c = intersection(divisor, C, m)
    connected = connectedness(cls) == 1

    counts: dict[int, int] = {}
    for n in range(lo - 1, hi + 1):
        twist = SurfaceDivisor(divisor.a, divisor.b + n)
        if connected and deg_on_c + k * n < 0:
            # negative degree on a connected curve: no sections
            counts[n] = 0
            continue
        if h1_surface(twist, m) != 0:
            return UNKNOWN
        below = twist.sub(C)
        counts[n] = h0_surface(twist, m) - h0_surface(below, m) + h1_surface(below, m)

    degrees: list[int] = []
    prev_jump = 0
    for n in range(lo, hi + 1):
        jump = counts[n] - counts[n - 1]
        if jump < prev_jump or jump < 0 or jump > k:
            return UNKNOWN
        degrees.extend([-n] * (jump - prev_jump))
        prev_jump = jump
    if prev_jump != k or counts[lo] - counts[lo - 1] != 0:
        return UNKNOWN
    return tuple(sorted(degrees))


def directrix(m: int) -> SurfaceDivisor:
    return SurfaceDivisor(1, -m)


def h2_surface(d: SurfaceDivisor, m: int) -> int:
    return h0_surface(canonical_divisor(m).sub(d), m)


def chi_surface(d: SurfaceDivisor, m: int) -> int:
    """Euler characteristic by surface Riemann-Roch."""
    k = canonical_divisor(m)
    return 1 + (intersection(d, d, m) - intersection(d, k, m)) // 2


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def bareiss_det(M) -> int:
    """det M over Z by Bareiss' fraction-free elimination; every division
    is exact, so the result is an integer whatever the entries."""
    a = [[int(x) for x in row] for row in M]
    n, sign, prev = len(a), 1, 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1] if n else 1


def nullspace_vector(mat, p: int) -> Optional[list[int]]:
    """One nonzero kernel vector over F_p, or None if the kernel is 0.

    Gauss-Jordan elimination on lists of Python ints, sharing no code
    with hbn.exact.linalg.  The vector is 1 at the first non-pivot column
    and 0 at the other free columns, which determines it: each pivot
    column takes minus its reduced row's entry in that first free column.
    """
    rows = [[int(x) % p for x in row] for row in mat]
    cols = np.shape(mat)[1]
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[rank])]
        pivots.append(c)
    free = next((c for c in range(cols) if c not in pivots), None)
    if free is None:
        return None
    v = [0] * cols
    v[free] = 1
    for r, c in enumerate(pivots):
        v[c] = -rows[r][free] % p
    return v


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Square matrix of Laurent polynomials over F_p.

    A bundle glued over the two standard charts by a Laurent polynomial
    matrix T (new frame = T * old frame) splits as a direct sum of line
    bundles; diag(t^d) corresponds to the degree-d line bundle.

    T is stored densely: one int64 array `coeffs` of shape
    (n, n, L) with entries in [0, p) and an exponent offset `low`, so entry
    (i, j) is sum_l coeffs[i, j, l] * t^(low + l).  Construction trims the
    exponent slots that are zero in every entry.  `det` evaluates T at the
    nodes 0..n(L-1), takes one `batch_det_mod` over that stack and one
    `interp_nodes`: det(T) is t^(n * low) times a polynomial of degree at
    most n(L-1), so it needs p > n(L-1) and raises PrimeTooSmallError
    otherwise.
    """

    coeffs: np.ndarray
    low: int
    p: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or 0 in c.shape:
            raise ValueError(f"coefficients must have shape (n, n, L) with n, L >= 1, got {c.shape}")
        c = c % self.p
        used = np.flatnonzero(c.any(axis=(0, 1)))
        first, last = (int(used[0]), int(used[-1])) if used.size else (0, 0)
        object.__setattr__(self, "coeffs", c[:, :, first : last + 1])
        object.__setattr__(self, "low", int(self.low) + first if used.size else 0)

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]

    def det(self) -> "TransitionMatrix":
        """det(T) as a 1x1 matrix; needs p > n(L-1) (class doc)."""
        n, _, length = self.coeffs.shape
        nodes = n * (length - 1) + 1
        if self.p < nodes:
            raise PrimeTooSmallError(
                f"prime too small for the determinant: degree up to {nodes - 1} needs p > {nodes - 1}"
            )
        vals = _eval_at_nodes(self.coeffs, nodes, self.p)
        coef = interp_nodes(batch_det_mod(vals, self.p), self.p)
        return TransitionMatrix(coef[None, None], n * self.low, self.p)


def birkhoff_splitting(T: TransitionMatrix) -> tuple[int, ...]:
    """Weakly increasing degree tuple of the bundle glued by T.

    Raises ValueError when det(T) is not a unit times a power of the
    variable (the matrix is then not an allowed gluing).

    The multiset of degrees comes from exact column reduction on a copy
    of the array:

        repeat:
            m_j   = minimal exponent in column j
            BC    = matrix of coefficients of t^(m_j), column by column
            if BC is invertible over F_p: the type is sorted(m)
            else: a kernel vector of BC combines columns (using only
                  nonpositive shifts t^(m_j* - m_j)) so that the valuation of
                  the cheapest involved column strictly increases

    Each combination is a column operation with entries in F_p[1/t] and
    constant determinant, so it changes neither the bundle nor det(T) up to
    a scalar.  It shifts columns only down onto m_j* >= low, so the exponent
    range of T never grows.  The column minima sum is bounded by the t-power
    of det(T), which forces termination; when BC is invertible, T * (ops)
    factors as (matrix of t-polynomials with unit determinant) *
    diag(t^(m_j)).
    """
    d = T.det()
    if not d.coeffs.any():
        raise ValueError("transition matrix is singular")
    if d.coeffs.shape[2] != 1:
        raise ValueError("det must be a unit times a power of the variable")
    p = T.p
    a = T.coeffs.copy()
    n, _, length = a.shape
    while True:
        # first[j]: slot of column j's minimal exponent; det(T) != 0, so no column is zero
        first = a.any(axis=0).argmax(axis=1)
        kernel = nullspace_vector(a[:, range(n), first], p)
        if kernel is None:
            return tuple(sorted(T.low + int(f) for f in first))
        support = np.flatnonzero(kernel)
        jstar = support[first[support].argmin()]
        new = np.zeros((n, length), dtype=np.int64)
        for j in support:
            top = first[jstar] + length - first[j]
            new[:, first[jstar] : top] += kernel[j] * a[:, j, first[j] :] % p
        a[:, jstar] = new % p


def transition_product(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """a * b: one batched convolution that reduces every product of two
    entries before summing, so it is exact in int64 for p up to 2^31 - 1."""
    if a.size != b.size or a.p != b.p:
        raise ValueError("size/field mismatch")
    x, y, p = a.coeffs, b.coeffs, a.p
    # prods[i, j, u, v] = sum_l x[i, l, u] * y[l, j, v], each term reduced
    prods = (x[:, :, None, :, None] * y[None, :, :, None, :] % p).sum(axis=1)
    out = np.zeros(prods.shape[:2] + (x.shape[2] + y.shape[2] - 1,), dtype=np.int64)
    for u in range(x.shape[2]):
        out[:, :, u : u + y.shape[2]] += prods[:, :, u]
    return TransitionMatrix(out, a.low + b.low, p)


def transition_diagonal(exps: list[int], p: int) -> TransitionMatrix:
    """diag(t^e for e in exps), the gluing of the split bundle."""
    n = len(exps)
    low = min(exps)
    coeffs = np.zeros((n, n, max(exps) - low + 1), dtype=np.int64)
    coeffs[range(n), range(n), [e - low for e in exps]] = 1
    return TransitionMatrix(coeffs, low, p)


def random_unimodular(n: int, p: int, rng: random.Random, at_infinity: bool = False) -> TransitionMatrix:
    """Product of elementary operations, invertible at 0 (or at infinity).

    Each operation adds poly * column i to column j in place, in the
    variable t (1/t at infinity); a column gains at most degree 2 per
    operation, so 6n + 1 slots hold the product.
    """
    width = 6 * n + 1
    a = np.zeros((n, n, width), dtype=np.int64)
    a[range(n), range(n), 0] = 1
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        poly = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
        for e, c in enumerate(poly):
            a[:, j, e:] += c * a[:, i, : width - e] % p
        a[:, j] %= p
    # scale each column by a nonzero constant
    a = a * np.array([rng.randrange(1, p) for _ in range(n)])[:, None] % p
    return TransitionMatrix(a[:, :, ::-1], 1 - width, p) if at_infinity else TransitionMatrix(a, 0, p)
