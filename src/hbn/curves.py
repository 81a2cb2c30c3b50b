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
smoothness test; the analysis of all four charts stays as the fallback
for the cases the boundary tests do not cover (`smoothness`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

from hbn.determinantal import BinaryFormCurve
from hbn.exact.field import quadratic_nonresidue
from hbn.exact.poly import (
    Poly,
    QuotientField,
    irreducible_factors,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmod,
    pmonic,
    pscale,
    ptrim,
    quadratic_roots,
    qgcd,
    squarefree_part,
)
from hbn.exact.poly2 import check_resultant_prime, resultant_bound, resultants_v
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

    def add(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return SurfaceDivisor(self.a + other.a, self.b + other.b)

    def sub(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return SurfaceDivisor(self.a - other.a, self.b - other.b)


def canonical_divisor(m: int) -> SurfaceDivisor:
    return SurfaceDivisor(-2, m - 2)


def directrix(m: int) -> SurfaceDivisor:
    return SurfaceDivisor(1, -m)


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


def h2_surface(d: SurfaceDivisor, m: int) -> int:
    return h0_surface(canonical_divisor(m).sub(d), m)


def chi_surface(d: SurfaceDivisor, m: int) -> int:
    """Euler characteristic by surface Riemann-Roch."""
    k = canonical_divisor(m)
    return 1 + (intersection(d, d, m) - intersection(d, k, m)) // 2


def connectedness(cls: HirzebruchClass) -> int:
    """h0 of the structure sheaf of a curve in the class.

    Equals 1 + h1(O(-kH - delta F)); the curve is connected, hence
    (when also smooth) irreducible, iff this is 1.
    """
    return 1 + h1_surface(SurfaceDivisor(-cls.k, -cls.delta), cls.m)


# ---------------------------------------------------------------------------
# charts and smoothness
# ---------------------------------------------------------------------------

CHARTS = ("t_x", "t_y", "s_x", "s_y")


def chart_polys(curve: BinaryFormCurve) -> dict[str, list[Poly]]:
    """Dehomogenizations on the four torus charts.

    Keys name (base coordinate, fiber coordinate): t_x sets s = y = 1,
    t_y sets s = x = 1, s_x sets t = y = 1, s_y sets t = x = 1.  Values
    are lists indexed by the fiber-variable power, entries univariate in
    the base variable.
    """
    k = curve.cls.k
    by_t = [form.dehomogenize_s() for form in curve.P]
    by_s = [form.dehomogenize_t() for form in curve.P]
    return {
        "t_x": list(by_t),
        "t_y": [by_t[k - j] for j in range(k + 1)],
        "s_x": list(by_s),
        "s_y": [by_s[k - j] for j in range(k + 1)],
    }


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str  # SMOOTH | SINGULAR | UNKNOWN
    chart: Optional[str] = None
    witness: Optional[dict] = None
    method: str = "RESULTANT"

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


def _root_witness(g: Poly, p: int, nr: int, rng: random.Random):
    """One root of g presented concretely: F_p element, F_p2 pair, or a
    symbolic minimal polynomial when all factors are large."""
    q = irreducible_factors(g, p, rng)[0][0]  # monic, of least degree; deg g >= 1
    if pdeg(q) == 1:
        return {"value": -q[0] % p, "ext": 1}
    if pdeg(q) == 2:
        return {"value": quadratic_roots(q, p, nr)[0], "ext": 2}
    return {"minpoly": q, "ext": pdeg(q)}


def _content(fv: list[Poly], p: int) -> Poly:
    g: Poly = []
    for c in fv:
        g = pgcd(g, c, p) if g else ptrim(list(c))
        if pdeg(g) == 0:
            return [1]
    return pmonic(g, p) if g else []


# fibers u = u0 that `_brute_scan` tries before it gives up
BRUTE_BUDGET = 400


def _brute_scan(fv: list[Poly], p: int, rng: random.Random):
    """Search common zeros of (f, f_u, f_v) over F_p and F_p2 directly;
    returns the chart triple of `_analyze_chart`."""
    fu, fvv = _deriv_u(fv, p), _deriv_v(fv, p)
    nr = quadratic_nonresidue(p)
    us = list(range(min(p, BRUTE_BUDGET)))
    rng.shuffle(us)
    for u0 in us:
        g = ptrim([peval(c, u0, p) for c in fv])
        gu = ptrim([peval(c, u0, p) for c in fu])
        gv = ptrim([peval(c, u0, p) for c in fvv])
        w = pgcd(pgcd(g, gu, p), gv, p) if (g or gu or gv) else []
        if not w:
            # all three specializations vanish identically: any v works
            return ("singular", {"u": u0, "v": 0, "ext": 1}, "BRUTE_FORCE")
        wit = _fiber_point(u0, w, p, nr, rng) if pdeg(w) >= 1 else {}
        if "v" in wit:
            return ("singular", wit, "BRUTE_FORCE")
    return ("unknown", None, "BRUTE_FORCE")


def _fiber_point(u0: int, g: Poly, p: int, nr: int, rng: random.Random) -> dict:
    """(u0, v) for a root v of g over F_p, else over F_p2, else g itself."""
    w = _root_witness(g, p, nr, rng)
    if "value" in w:
        return {"u": u0, "v": w["value"], "ext": w["ext"]}
    return {"u": u0, "v_poly": g, "symbolic": True}


def _chart_batch(curve: BinaryFormCurve, charts: tuple[str, ...] = CHARTS) -> dict:
    """What the smoothness certificate of the curve computes without
    randomness on the named charts, with every resultant from one
    `resultants_v` call.

    table[chart] = (fv, cont, h): the trimmed chart polynomial, its
    content in the base variable and fv / cont.  table[chart, 'r1' | 'r2']
    = Res_v(h, h_v), Res_v(h, h_u) for every chart with len(h) >= 2.  A
    pair whose degree bound reaches p is left out, so it raises only where
    it is read (`_lookup`).  Charts on the same base variable hold the same
    coefficients in reverse order, so they share one content.
    """
    p = curve.p
    polys = chart_polys(curve)
    table, pairs, contents = {}, {}, {}
    for name in charts:
        fv = _vtrim(polys[name])
        if name[0] not in contents:
            contents[name[0]] = _content(fv, p)
        cont = contents[name[0]]
        h = _vtrim([pdivmod(c, cont, p)[0] for c in fv]) if pdeg(cont) >= 1 else fv
        table[name] = (fv, cont, h)
        if len(h) > 1:
            pairs[name, "r1"] = (h, _deriv_v(h, p))
            pairs[name, "r2"] = (h, _deriv_u(h, p))
    pairs = {key: pair for key, pair in pairs.items() if resultant_bound(*pair) < p}
    table.update(zip(pairs, resultants_v(pairs.values(), p)))
    return table


def _lookup(table: dict, key, f: list[Poly], g: list[Poly], p: int) -> Poly:
    if key not in table:
        check_resultant_prime(f, g, p)  # left out of the batch: raises
    return table[key]


def _analyze_chart(name: str, p: int, rng: random.Random, table: dict):
    """Returns (status, witness, method) with status in
    {'clean', 'singular', 'unknown'}.

    Complete in the generic branches: 'clean' certifies that no point of
    the chart, over the algebraic closure, is a common zero of the
    polynomial and its two partials.  The chart's polynomial and its
    resultants come from the curve's `_chart_batch` table.
    """
    nr = quadratic_nonresidue(p)
    fv, cont, h = table[name]
    if not fv:
        raise ValueError("chart polynomial is identically zero")

    def root_witness(g: Poly, var: str, other: str):
        # singular points with coordinate var at a root of g and other = 0
        w = _root_witness(g, p, nr, rng)
        if "value" in w:
            return ("singular", {var: w["value"], other: 0, "ext": w["ext"]}, "RESULTANT")
        wit = {var + "_minpoly": w["minpoly"], other: 0, "symbolic": True}
        return ("singular", wit, "RESULTANT")

    if pdeg(cont) >= 1:
        rep = pgcd(cont, pderiv(cont, p), p)
        if pdeg(rep) >= 1:
            # repeated vertical component: non-reduced, singular everywhere on it
            return root_witness(rep, "u", "v")
        if len(h) <= 1:
            # no fiber variable: a reduced union of fibers
            return ("clean", None, "RESULTANT")
        # a vertical component meets the residual curve wherever the
        # residual has positive fiber degree over a content root
        for q, _ in irreducible_factors(cont, p, rng):
            if any(pmod(c, q, p) for c in h[1:]):
                return ("singular", _base_root_point(q, h, p, nr, rng), "RESULTANT")

    hu = _deriv_u(h, p)
    hv = _deriv_v(h, p)
    if all(not c for c in hu):
        # constant in the base variable: singular iff repeated fiber root
        g0 = ptrim([c[0] if c else 0 for c in h])
        g = pgcd(g0, pderiv(g0, p), p)
        if pdeg(g) < 1:
            return ("clean", None, "RESULTANT")
        return root_witness(g, "v", "u")
    if all(not c for c in hv):
        # fiber degree a multiple of p cannot happen at this scale; be safe
        return _brute_scan(h, p, rng)
    r1 = _lookup(table, (name, "r1"), h, hv, p)
    if not ptrim(r1):
        # repeated fiber-direction factor: multiple component, singular;
        # hunt for an explicit point
        return _brute_scan(h, p, rng)
    r2 = _lookup(table, (name, "r2"), h, hu, p)
    if not ptrim(r2):
        return _brute_scan(h, p, rng)
    cand = squarefree_part(pgcd(r1, r2, p), p)
    if pdeg(cand) < 1:
        return ("clean", None, "RESULTANT")
    for q, _ in irreducible_factors(cand, p, rng):
        L = QuotientField(q, p)
        hL = _specialize(h, q, L)
        huL = _specialize(hu, q, L)
        hvL = _specialize(hv, q, L)
        g = qgcd(qgcd(hL, hvL, L), huL, L)
        if len(g) - 1 >= 1:
            return ("singular", _base_root_point(q, g, p, nr, rng, factor=True), "RESULTANT")
    return ("clean", None, "RESULTANT")


def _reduce_elt(c: Poly, L: QuotientField):
    r = pmod(c, L.q, L.p)
    r = list(r) + [0] * (L.deg - len(r))
    return tuple(r[: L.deg])


def _specialize(fv: list[Poly], q: Poly, L: QuotientField) -> list:
    """Chart polynomial with base variable sent to the class of q's root."""
    out = [_reduce_elt(c, L) for c in fv]
    while out and L.is_zero(out[-1]):
        out.pop()
    return out


def _base_root_point(q: Poly, fv: list, p: int, nr: int, rng: random.Random, factor=False):
    """Singular point over a root of the monic irreducible q in the base
    variable, on the fiber polynomial fv: the residual curve where a
    vertical component meets it, or (factor=True) the common
    fiber-direction factor over F_p[u]/(q).  Concrete when q is linear;
    otherwise symbolic, with fv itself when it is that factor."""
    if pdeg(q) == 1:
        u0 = -q[0] % p
        return _fiber_point(u0, ptrim([peval(c, u0, p) for c in fv]), p, nr, rng)
    wit = {"u_minpoly": q, "symbolic": True}
    if factor:
        wit["v_factor_over_extension"] = [list(c) for c in fv]
    return wit


def _boundary_decides(curve: BinaryFormCurve, polys: dict[str, list[Poly]]) -> bool:
    """Whether chart t_x and `_boundary_singular` can certify the curve
    with the verdicts and errors of `_four_charts`: P_k != 0 and the fiber
    s = 0 is not a component (so the boundary tests are defined), p > k,
    and no chart polynomial's resultant pairs reach p.

    The last bound is taken on the raw chart polynomials.  It caps their
    base degrees below p, and then dividing out the content cannot raise
    a pair's bound, so no chart of `_four_charts` would raise
    PrimeTooSmallError.
    """
    p, k = curve.p, curve.cls.k
    if k >= p or curve.P[k].is_zero() or not any(c and c[0] for c in polys["s_x"]):
        return False
    for fv in map(_vtrim, polys.values()):
        if len(fv) > 1 and max(
            resultant_bound(fv, _deriv_v(fv, p)), resultant_bound(fv, _deriv_u(fv, p))
        ) >= p:
            return False
    return True


def _boundary_singular(polys: dict[str, list[Poly]], p: int) -> bool:
    """Whether the curve is singular off chart t_x, i.e. where s = 0 or
    y = 0.  Needs P_k != 0 and the fiber s = 0 not a component.

    The chart polynomial and its two partials restricted to each piece
    (module docstring), with h_j(x) = sum_i [s^j]P_i(s,1) x^i:
    y = 0, s = 1 (chart t_y at v = 0): P_k(1,t), P_k'(1,t), P_(k-1)(1,t);
    s = 0, y = 1 (chart s_x at u = 0): h_0(x), h_0'(x), h_1(x);
    s = y = 0 (chart s_y at the origin): [x^k]h_0, [x^k]h_1, [x^(k-1)]h_0.
    """
    by_t, by_s = polys["t_x"], polys["s_x"]
    k = len(by_t) - 1

    def common_root(f: Poly, g: Poly) -> bool:
        return pdeg(pgcd(pgcd(f, pderiv(f, p), p), g, p)) >= 1

    def coef(c: Poly, j: int) -> int:
        return c[j] if j < len(c) else 0

    h0 = ptrim([coef(c, 0) for c in by_s])
    h1 = ptrim([coef(c, 1) for c in by_s])
    return (
        common_root(by_t[k], by_t[k - 1])
        or common_root(h0, h1)
        or not (coef(h0, k) or coef(h0, k - 1) or coef(h1, k))
    )


def _four_charts(curve: BinaryFormCurve, rng: random.Random) -> SmoothnessCertificate:
    """Smoothness from all four torus charts, analysed in CHARTS order.

    The resultants of all four charts come from one batched pass before
    the first chart is analysed (`_chart_batch`), grouped by Sylvester
    shape, with one determinant kernel call and one interpolation per
    shape.  That pass draws nothing from rng, and a pair too large for p
    raises only in the chart that reads it, so the charts keep their
    sequential verdicts and errors.
    """
    p = curve.p
    table = _chart_batch(curve)
    unknown_hit = False
    for name in CHARTS:
        status, wit, method = _analyze_chart(name, p, rng, table)
        if status == "singular":
            return SmoothnessCertificate("SINGULAR", chart=name, witness=wit, method=method)
        if status == "unknown":
            unknown_hit = True
    if unknown_hit:
        return SmoothnessCertificate(UNKNOWN, method="BRUTE_FORCE")
    return SmoothnessCertificate("SMOOTH", method="RESULTANT")


def smoothness(curve: BinaryFormCurve, rng: Optional[random.Random] = None) -> SmoothnessCertificate:
    """Jacobian certificate over the algebraic closure.

    SMOOTH is exact (resultant + gcd degree checks); SINGULAR carries a
    witnessing chart and point; UNKNOWN means a degenerate branch where no
    explicit witness was found and the caller should resample.

    Chart t_x is analysed first, and if it is clean, the three boundary
    pieces off it are tested by univariate gcds (`_boundary_singular`).
    Both clean is SMOOTH.  A SINGULAR chart t_x is returned as is: the
    four-chart path (`_four_charts`) analyses t_x first, on the same
    table entries and rng state, so it returns the same.  On any other
    outcome (t_x UNKNOWN, a boundary singular point) and whenever
    `_boundary_decides` is false, rng is restored to its state on entry
    and `_four_charts` runs from the top.  So every SINGULAR and UNKNOWN
    certificate, every raise and the rng state after them are those of
    `_four_charts`.  After SMOOTH the rng state can differ: `_four_charts`
    also draws rng for nontrivial gcd candidates in the other charts that
    turn out clean.  `hbn sample` draws nothing after a SMOOTH certificate
    with P_k != 0, so its output does not depend on that state.
    """
    rng = rng or random.Random(0)
    p = curve.p
    polys = chart_polys(curve)
    if _boundary_decides(curve, polys):
        state = rng.getstate()
        status, wit, method = _analyze_chart("t_x", p, rng, _chart_batch(curve, ("t_x",)))
        if status == "singular":
            return SmoothnessCertificate("SINGULAR", chart="t_x", witness=wit, method=method)
        if status == "clean" and not _boundary_singular(polys, p):
            return SmoothnessCertificate("SMOOTH", method="RESULTANT")
        rng.setstate(state)
    return _four_charts(curve, rng)


# ---------------------------------------------------------------------------
# splitting types from twisted section counts
# ---------------------------------------------------------------------------


def h0_profile_splitting(
    cls: HirzebruchClass,
    divisor: SurfaceDivisor,
    window: Optional[tuple[int, int]] = None,
) -> Union[SplittingType, str]:
    """Splitting type of the pushforward of O_C(divisor) along the ruling.

    Section counts h(n) = h0(C, O(divisor + nF)) are computed from the
    surface via the restriction sequence whenever h1 of the ambient twist
    vanishes; when the twist has negative degree on C the count is 0
    outright (the class is connected).  First differences recover
    #{i: d_i >= -n}, whose jumps give the degree multiset.  Returns
    UNKNOWN when validity fails somewhere needed or the window does not
    saturate.
    """
    m, k, delta = cls.m, cls.k, cls.delta
    C = SurfaceDivisor(k, delta)
    if window is None:
        reach = (k - 1) * m + delta + (abs(divisor.a) + 1) * (m + 2) + abs(divisor.b) + k + 3
        window = (-reach, reach)
    lo, hi = window
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
