"""Certification of sampled curves on the surface F_m.

Cohomology of line bundles (closed toric formulas), chartwise smoothness
certificates over F_p-bar, connectedness, and recovery of splitting
types from twisted section counts.

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

Chart t_x reads r1 = Res_v(h, h_v) and r2 = Res_v(h, h_u) of its
residual h.  r1 = 0 means a multiple component, whose point is found on
the first fiber u = 0, 1, 2, ... that keeps it; r2 = 0 alone means a
section x = c*y (every SUT curve has one), the content of the chart with
u and v exchanged, which is analysed instead.  Nothing is random or
budgeted: the certificate is SMOOTH or SINGULAR, a function of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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
    pmonic,
    pscale,
    ptrim,
    quadratic_roots,
    squarefree_part,
)
from hbn.exact.poly2 import gcd_mod, restrict, resultant_v
from hbn.splitting import HirzebruchClass, SplittingType

UNKNOWN = "UNKNOWN"


# ---------------------------------------------------------------------------
# line bundles on the surface
# ---------------------------------------------------------------------------


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


def connectedness(cls: HirzebruchClass) -> int:
    """h0 of the structure sheaf of a curve in the class.

    Equals 1 + h1(O(-kH - delta F)); the curve is connected, hence
    (when also smooth) irreducible, iff this is 1.
    """
    return 1 + h1_surface(SurfaceDivisor(-cls.k, -cls.delta), cls.m)


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
        return {
            "verdict": self.verdict,
            "chart": self.chart,
            "witness": self.witness,
            "method": self.method,
        }


def _vtrim(fv: list[Poly]) -> list[Poly]:
    fv = [ptrim(list(c)) for c in fv]
    while fv and not fv[-1]:
        fv.pop()
    return fv


def _deriv_u(fv: list[Poly], p: int) -> list[Poly]:
    return [pderiv(c, p) for c in fv]


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
        g = pgcd(g, c, p) if g else ptrim(list(c))
        if pdeg(g) == 0:
            return [1]
    return pmonic(g, p) if g else []


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


def _transpose(fv: list[Poly]) -> list[Poly]:
    """The chart polynomial with u and v exchanged."""
    width = max(map(len, fv))
    return [[c[j] if j < len(c) else 0 for c in fv] for j in range(width)]


def _analyze_chart(fv: list[Poly], p: int):
    """Returns (status, witness) with status in {'clean', 'singular'} for
    one chart polynomial fv (`chart_polys`).

    'clean' certifies that no point of the chart, over the algebraic
    closure, is a common zero of the polynomial and its two partials.
    The content of fv in the base variable (its vertical components) is
    divided out first, and the two resultants are taken of the residual
    h.  Needs p above k and above every resultant's degree bound.
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

    hu = _deriv_u(h, p)
    hv = _deriv_v(h, p)
    r1 = resultant_v(h, hv, p)
    if not ptrim(r1):
        # a repeated factor of positive fiber degree: a multiple component
        return ("singular", _multiple_component_point(h, hu, hv, p, nr))
    r2 = resultant_v(h, hu, p)
    if not ptrim(r2):
        # a factor free of u (a section x = c*y here) is the content of the
        # transposed chart, which divides it out; the transposed residual
        # has no factor free of v, so this recursion is one level deep
        status, wit = _analyze_chart(_transpose(h), p)
        flip = {"u": "v", "v": "u"}  # every witness key names its coordinate first
        return status, wit and {flip.get(key[0], key[0]) + key[1:]: x for key, x in wit.items()}
    cand = squarefree_part(pgcd(r1, r2, p), p)
    if pdeg(cand) < 1:
        return ("clean", None)
    for q, _ in irreducible_factors(cand, p):
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
    PrimeTooSmallError comes only from p <= k, from a resultant of chart
    t_x (or of its transpose, when a section x = c*y is a component)
    with a degree bound of p or more, or from factoring a polynomial of
    degree p or more.
    """
    p, k = curve.p, curve.cls.k
    if p <= k:
        raise PrimeTooSmallError(f"smoothness needs p > k = {k}")
    polys = chart_polys(curve)
    status, wit = _analyze_chart(polys["t_x"], p)
    if status == "singular":
        return SmoothnessCertificate("SINGULAR", chart="t_x", witness=wit)
    boundary = _boundary_point(polys, p)
    if boundary:
        return SmoothnessCertificate("SINGULAR", chart=boundary[0], witness=boundary[1])
    return SmoothnessCertificate("SMOOTH")


# ---------------------------------------------------------------------------
# splitting types from twisted section counts
# ---------------------------------------------------------------------------


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
