"""Certification of sampled curves on the surface F_m.

Chartwise smoothness certificates over F_p-bar, and the number of
connected components of a curve in a class.

A SMOOTH certificate for det(Ax + By) = 0 (with P_k != 0 and p > k) is
all that `hbn sample` computes; two checks follow from it, and
tests/oracles.py keeps them as oracles (`cokernel_rank_check`,
`discriminant_check`).  The pointwise cokernel rank is k - 1: by
Jacobi's formula d det M = tr(adj M dM) for M = Ax + By, and adj M = 0
where rank M <= k - 2, so det M and both its partials would vanish at
such a point.  The discriminant of the fiber polynomial is a binary form
of degree 2(k-1)delta + k(k-1)m = 2g + 2k - 2, nonzero since a smooth
curve is reduced and a squarefree polynomial of degree k < p is
separable, so it has that many roots with multiplicity.

SMOOTH mod p also holds in characteristic 0 for the curve with the same
integer coefficients.  That curve is flat and proper over Z_(p): it is
cut out of F_m by an equation that is nonzero mod p.  Its non-smooth
locus is closed, so its image in Spec Z_(p) is closed; the image misses
the closed point because the fiber mod p is smooth, so it is empty and
the curve over Q is smooth.

The surface is covered by the four torus charts of its quotient
construction; a curve sum P_i(s,t) x^i y^(k-i) dehomogenizes by setting
one of s,t and one of x,y to 1.  Chart t_x (s = y = 1) holds every
closed point with s != 0 and y != 0.  The rest is three pieces: y = 0
with s = 1 (a line of chart t_y), s = 0 with y = 1 (a line of chart s_x,
the fiber over s = 0) and the corner s = y = 0 (the origin of chart s_y).
On each piece the chart polynomial and its two partials restrict to
univariate polynomials in the free coordinate, or to constants at the
corner, so a singular point there is a common root found by a gcd.
Jacobian analysis of chart t_x plus these three tests is a complete
smoothness test, and it is the only one `smoothness` runs: the other
three charts are never analysed, so a resultant of theirs too large for
p raises nothing.

Chart t_x reads one resultant, r1 = Res_v(h, h_v) of its residual h
(the content in u divided out; n = deg_v h < p).  r1 = 0 means a
multiple component, whose point is found on the first fiber
u = 0, 1, 2, ... that keeps it.  Otherwise, by the lemma below, a
singular point of h lies over a root of gcd(r1, r1'), and an irreducible
factor q of that gcd holds one exactly when h, h_v and h_u have a common
factor over F_p[u]/(q).  r1' != 0 unless r1 is constant, as deg r1 < p
(`resultant_v` refuses larger bounds).  A point on a vertical component
is singular when the component is repeated or meets the residual; any
other singular point of the chart is one of h.  Nothing is random or
budgeted: the certificate is SMOOTH or SINGULAR, a function of the curve.

Lemma (ord_u0 Res_v(h, h_v) >= I_P(h, h_v) >= m_P(h) m_P(h_v) >= 2 in
Fulton, Algebraic Curves): if h = h_u = h_v = 0 at P = (u0, v0), then
(u - u0)^2 divides r1.  With u = u0 + t, r1 = det S(t) for the Sylvester
matrix S of h and h_v at v-degrees n and n - 1, of size N = 2n - 1.
S(0) maps binary forms (A, B) in (v : w) of degrees (n - 2, n - 1) to
AF + BG, for the forms F = h(u0, v) and G = h_v(u0, v) of degrees n and
n - 1; F != 0 as h has no factor free of v, so ker S(0) has dimension
d = deg gcd(F, G).  F and G vanish at (v0 : 1), and if h_n(u0) = 0 also
at (1 : 0), as G leads with n*h_n: the point at infinity only adds to d.
If d >= 2, rank S(0) <= N - 2, so adj S(0) = 0 and the t-coefficient
tr(adj S(0) S'(0)) of r1 vanishes.  If d = 1, adj S(0) is a multiple of
the kernel vector (G/D, -F/D), for D = v - v0*w, times evaluation at v0
(the image is D's multiples), so the t-coefficient is a multiple of
(G/D)(v0) h_u(P) - (F/D)(v0) h_uv(P), which is 0: h_u(P) = 0, and v0 is
a double root of F.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from hbn.determinantal import BinaryFormCurve
from hbn.exact.field import PrimeTooSmallError, quadratic_nonresidue
from hbn.exact.poly import (
    Poly,
    irreducible_factors,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pscale,
    ptrim,
    quadratic_roots,
)
from hbn.exact.poly2 import gcd_mod, restrict, resultant_v
from hbn.splitting import HirzebruchClass


def connectedness(cls: HirzebruchClass) -> int:
    """h0 of the structure sheaf of a curve C in the class: k when
    m = delta = 0 (k disjoint fibers of the other ruling), else 1.

    From 0 -> O(-C) -> O -> O_C -> 0 on the rational surface F_m,
    h0(O_C) = 1 + h1(O(-C)).  For k = 1 that h1 is 0: O(-H - delta F)
    has degree -1 on every fiber of the ruling, so both of its direct
    images vanish.  For k >= 2, Serre duality with
    K = -2H + (m-2)F gives h1(O(-C)) = h1((k-2)H + (m-2+delta)F), and
    aH + bF with a >= 0 pushes forward to the sum of O(b + i*m) over
    i = 0..a, so h1 is the sum over j = 1..k-1 of max(0, 1 - delta - j*m):
    k - 1 when m = delta = 0, and 0 otherwise.  The curve is connected,
    hence (when also smooth) irreducible, iff this is 1.
    """
    return cls.k if cls.m == cls.delta == 0 else 1


# ---------------------------------------------------------------------------
# charts and smoothness
# ---------------------------------------------------------------------------

def chart_polys(curve: BinaryFormCurve) -> dict[str, list[Poly]]:
    """Dehomogenizations on the two charts `smoothness` reads.

    Keys name (base coordinate, fiber coordinate): t_x sets s = y = 1,
    s_x sets t = y = 1.  Values are lists indexed by the fiber-variable
    power (x), entries univariate in the base variable.
    """
    return {
        "t_x": [ptrim(list(c)) for c in curve.P],
        "s_x": [ptrim(list(reversed(c))) for c in curve.P],
    }


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str  # SMOOTH | SINGULAR
    chart: Optional[str] = None
    witness: Optional[dict] = None
    # a class constant, not a field: documents keep their "method" key
    method = "RESULTANT"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "method": self.method}


def _vtrim(fv: list[Poly]) -> list[Poly]:
    fv = [ptrim(list(c)) for c in fv]
    while fv and not fv[-1]:
        fv.pop()
    return fv


def _deriv_v(fv: list[Poly], p: int) -> list[Poly]:
    return [pscale(fv[j], j, p) for j in range(1, len(fv))]


def _root_witness(g: Poly, p: int, nr: int):
    """One root of g presented concretely: F_p element, F_p2 pair, or a
    symbolic minimal polynomial when all factors are large."""
    q = irreducible_factors(g, p)[0][0]  # monic, of least degree; deg g >= 1
    if pdeg(q) == 1:
        return {"value": -q[0] % p, "ext": 1}
    if pdeg(q) == 2:
        return {"value": quadratic_roots(q, p, nr)[0], "ext": 2}
    return {"minpoly": q, "ext": pdeg(q)}


def _axis_point(g: Poly, p: int, nr: int) -> dict:
    """The point with u at a root of g and v = 0."""
    w = _root_witness(g, p, nr)
    if "value" in w:
        return {"u": w["value"], "v": 0, "ext": w["ext"]}
    return {"u_minpoly": w["minpoly"], "v": 0, "symbolic": True}


def _content(fv: list[Poly], p: int) -> Poly:
    g: Poly = []
    for c in fv:
        g = pgcd(g, c, p)  # monic; gcd with [] is the other argument
        if g == [1]:
            break
    return g


def _fiber_point(u0: int, g: Poly, p: int, nr: int) -> dict:
    """(u0, v) for a root v of g over F_p, else over F_p2, else g itself."""
    w = _root_witness(g, p, nr)
    if "value" in w:
        return {"u": u0, "v": w["value"], "ext": w["ext"]}
    return {"u": u0, "v_poly": g, "symbolic": True}


def _multiple_component_point(h: list[Poly], hu: list[Poly], hv: list[Poly], p: int, nr: int) -> dict:
    """A point on the first fiber u = u0 where h, h_u and h_v restrict to
    polynomials in v with a common root.  h is a residual, so h(u0, v) is
    never identically zero.  A repeated factor of h with positive fiber
    degree divides all three, and its leading coefficient in v, of degree
    <= deg_u h < p, is nonzero at some u0 <= deg_u h: the scan ends there
    at the latest."""
    for u0 in range(max(map(len, h))):
        w = gcd_mod([h, hu, hv], [-u0 % p, 1], p)
        if len(w) >= 2:
            return _fiber_point(u0, [c[0] if c else 0 for c in w], p, nr)
    raise AssertionError("a multiple component meets no fiber u <= deg_u h")


def _analyze_chart(fv: list[Poly], p: int):
    """Returns (status, witness) with status in {'clean', 'singular'} for
    one chart polynomial fv (`chart_polys`).

    'clean' certifies that no point of the chart, over the algebraic
    closure, is a common zero of the polynomial and its two partials.
    The content of fv in the base variable (its vertical components) is
    divided out first, and the one resultant Res_v(h, h_v) is taken of the
    residual h.  Needs p above k and above that resultant's degree bound.
    """
    nr = quadratic_nonresidue(p)
    fv = _vtrim(fv)
    if not fv:
        raise ValueError("chart polynomial is identically zero")
    cont = _content(fv, p)
    h = fv
    if pdeg(cont) >= 1:
        rep = pgcd(cont, pderiv(cont, p), p)
        if pdeg(rep) >= 1:
            # repeated vertical component: non-reduced, singular everywhere on it
            return ("singular", _axis_point(rep, p, nr))
        h = _vtrim([pdivmod(c, cont, p)[0] for c in fv])
        # a vertical component meets the residual curve wherever the
        # residual has positive fiber degree over a content root
        for q, _ in irreducible_factors(cont, p):
            if len(restrict(h, q, p)) >= 2:
                return ("singular", _base_root_point(q, h, p, nr))
    if len(h) <= 1:
        # no fiber variable: a reduced union of fibers, or no point at all
        return ("clean", None)

    hu = [pderiv(c, p) for c in h]
    hv = _deriv_v(h, p)
    r1 = resultant_v(h, hv, p)
    if not ptrim(r1):
        # a repeated factor of positive fiber degree: a multiple component
        return ("singular", _multiple_component_point(h, hu, hv, p, nr))
    # a singular point over u0 makes u0 a repeated root of r1 (module docstring)
    for q, _ in irreducible_factors(pgcd(r1, pderiv(r1, p), p), p):
        g = gcd_mod([h, hv, hu], q, p)
        if len(g) >= 2:
            return ("singular", _base_root_point(q, g, p, nr, factor=True))
    return ("clean", None)


def _base_root_point(q: Poly, fv: list[Poly], p: int, nr: int, factor=False):
    """Singular point over a root of the monic irreducible q in the base
    variable, on the fiber polynomial fv: the residual curve where a
    vertical component meets it, or (factor=True) the common
    fiber-direction factor `gcd_mod` found.  Concrete when q is linear;
    otherwise symbolic, with fv itself when it is that factor, each
    coefficient padded to deg q entries."""
    if pdeg(q) == 1:
        u0 = -q[0] % p
        return _fiber_point(u0, ptrim([peval(c, u0, p) for c in fv]), p, nr)
    wit = {"u_minpoly": q, "symbolic": True}
    if factor:
        wit["v_factor_over_extension"] = [c + [0] * (pdeg(q) - len(c)) for c in fv]
    return wit


def _boundary_point(polys: dict[str, list[Poly]], p: int):
    """A singular point of the curve off chart t_x, where s = 0 or y = 0,
    as (chart, witness); None if there is none.

    The chart polynomial and its two partials restricted to each piece
    (module docstring), with h_j(x) = sum_i [s^j]P_i(s,1) x^i:
    y = 0, s = 1 (chart t_y at v = 0): P_k(1,t), P_k'(1,t), P_(k-1)(1,t);
    s = 0, y = 1 (chart s_x at u = 0): h_0(x), h_0'(x), h_1(x);
    s = y = 0 (chart s_y at the origin): [x^k]h_0, [x^k]h_1, [x^(k-1)]h_0.
    A singular point of a line is a common root of its three
    restrictions; where all three vanish, the line is a multiple
    component, singular along its whole length, and its origin is
    returned.
    """
    by_t, by_s = polys["t_x"], polys["s_x"]
    k = len(by_t) - 1
    nr = quadratic_nonresidue(p)

    def coef(c: Poly, j: int) -> int:
        return c[j] if j < len(c) else 0

    def common_roots(f: Poly, g: Poly) -> Poly:
        return pgcd(pgcd(f, pderiv(f, p), p), g, p)

    h0 = ptrim([coef(c, 0) for c in by_s])
    h1 = ptrim([coef(c, 1) for c in by_s])
    origin = {"u": 0, "v": 0, "ext": 1}
    line = common_roots(by_t[k], by_t[k - 1])
    if not line:
        return "t_y", origin
    if pdeg(line) >= 1:
        return "t_y", _axis_point(line, p, nr)
    line = common_roots(h0, h1)
    if not line:
        return "s_x", origin
    if pdeg(line) >= 1:
        return "s_x", _fiber_point(0, line, p, nr)
    if not (coef(h0, k) or coef(h0, k - 1) or coef(h1, k)):
        return "s_y", origin
    return None


def check_smoothness_prime(p: int, k: int) -> None:
    """Raise PrimeTooSmallError unless p > k: then d/dx lowers each fiber degree by one."""
    if p <= k:
        raise PrimeTooSmallError(f"smoothness needs p > k = {k}")


def smoothness(curve: BinaryFormCurve) -> SmoothnessCertificate:
    """Jacobian certificate over the algebraic closure: SMOOTH or
    SINGULAR, a function of the curve alone.

    Chart t_x is analysed first (`_analyze_chart`); unless it is
    SINGULAR, the three pieces off it are tested by univariate gcds
    (`_boundary_point`), in the order y = 0, the fiber s = 0, the corner,
    and a singular point there is returned on its own chart.

    SMOOTH is exact: chart t_x clean (resultant + gcd degree checks) and
    no boundary piece singular.  SINGULAR carries a witnessing chart and
    point.  The other three charts are never analysed, so
    PrimeTooSmallError comes only from p <= k, from chart t_x's one
    resultant with a degree bound of p or more, or from factoring a
    polynomial of degree p or more.
    """
    p = curve.p
    check_smoothness_prime(p, curve.cls.k)
    polys = chart_polys(curve)
    status, wit = _analyze_chart(polys["t_x"], p)
    if status == "singular":
        return SmoothnessCertificate("SINGULAR", chart="t_x", witness=wit)
    boundary = _boundary_point(polys, p)
    if boundary:
        return SmoothnessCertificate("SINGULAR", chart=boundary[0], witness=boundary[1])
    return SmoothnessCertificate("SMOOTH")
