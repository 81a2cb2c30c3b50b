"""The oracles' binary forms and dual numbers, and the resultant stack.

The resultant route is load bearing for the smoothness and discriminant
certificates, so it is checked against sympy on small instances and
against the product-over-roots identity on split inputs.
"""

import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BinaryForm, DualForm, sympy_resultant_v

from hbn.exact.field import DEFAULT_PRIME
from hbn.exact.poly import pmul, ptrim
from hbn.exact.linalg import batch_det_mod
from hbn.exact.poly2 import resultant_v, sylvester

P = DEFAULT_PRIME
SEED = 20240817


def rand_form(deg, rng):
    return BinaryForm.random(deg, P, rng)


def test_mul_degrees_add_and_eval_is_multiplicative():
    rng = random.Random(SEED)
    for _ in range(20):
        f, g = rand_form(rng.randrange(5), rng), rand_form(rng.randrange(5), rng)
        h = f.mul(g)
        assert h.degree == f.degree + g.degree
        s0, t0 = rng.randrange(P), rng.randrange(P)
        assert h.eval(s0, t0) == f.eval(s0, t0) * g.eval(s0, t0) % P


def test_add_requires_matching_degree_and_eval_is_additive():
    rng = random.Random(SEED)
    f, g = rand_form(4, rng), rand_form(4, rng)
    h = f.add(g)
    s0, t0 = 3, 11
    assert h.eval(s0, t0) == (f.eval(s0, t0) + g.eval(s0, t0)) % P


def test_homogenize_dehomogenize_round_trip():
    coeffs = [5, 0, 3, 2]
    f = BinaryForm.homogenize(coeffs, 6, P)
    assert f.degree == 6
    assert f.dehomogenize_s() == ptrim(coeffs)
    # s = 1 slice evaluates like the underlying poly in t
    for t0 in (0, 1, 17):
        acc = sum(c * pow(t0, i, P) for i, c in enumerate(coeffs)) % P
        assert f.eval(1, t0) == acc


def test_zero_and_constant():
    z = BinaryForm.zero(3, P)
    assert z.is_zero()
    c = BinaryForm.constant(9, P)
    assert c.degree == 0 and c.eval(1, 1) == 9


def test_dual_form_product_rule():
    # (f + eps f')(g + eps g') = fg + eps (f g' + f' g)
    rng = random.Random(SEED)
    for _ in range(10):
        d1, d2 = rng.randrange(4), rng.randrange(4)
        f, fp_ = rand_form(d1, rng), rand_form(d1, rng)
        g, gp = rand_form(d2, rng), rand_form(d2, rng)
        prod = DualForm(f, fp_).mul(DualForm(g, gp))
        assert prod.base.coeffs == f.mul(g).coeffs
        want = f.mul(gp).add(fp_.mul(g))
        assert prod.epsilon_part.coeffs == want.coeffs


def test_resultant_univariate_matches_sylvester_and_sympy():
    # degrees (1, 3) always run the sign path: Res(v + 1, v^3 + 2) = 1
    cases = [([1, 1], [2, 0, 0, 1])]
    rng = random.Random(SEED)
    for _ in range(8):
        f = [rng.randrange(P) for _ in range(rng.randrange(2, 5))]
        g = [rng.randrange(P) for _ in range(rng.randrange(2, 5))]
        cases.append((ptrim(f), ptrim(g)))
    assert batch_det_mod(sylvester(*cases[0])[None], P)[0] == 1
    for f, g in cases:
        if len(f) < 2 or len(g) < 2:
            continue
        r = batch_det_mod(sylvester(f, g)[None], P)[0]
        want = sympy_resultant_v([[c] for c in f], [[c] for c in g], P)
        assert r == (want[0] if want else 0)
        syl = sylvester(f, g)
        assert syl.shape == (len(f) + len(g) - 2, len(f) + len(g) - 2)


def test_resultant_product_over_roots():
    # res(f, g) = lc(f)^deg g * prod g(alpha_i) over the roots of f
    roots = [2, 5, 11]
    lc = 7
    f = [lc]
    for a in roots:
        f = pmul(f, [(-a) % P, 1], P)
    f = [c * pow(lc, P - 2, P) % P for c in f]
    f = [c * lc % P for c in f]  # keep lc as leading coeff
    g = [3, 0, 1, 2]
    want = pow(lc, len(g) - 1, P)
    for a in roots:
        want = want * sum(c * pow(a, i, P) for i, c in enumerate(g)) % P
    assert batch_det_mod(sylvester(f, g)[None], P)[0] == want


def test_resultant_v_linear_case():
    # res_v(v - a(u), v - b(u)) = +-(a - b)(u)
    a = [1, 2, 3]
    b = [4, 0, 0, 5]
    f = [[(P - c) % P for c in a], [1]]
    g = [[(P - c) % P for c in b], [1]]
    r = ptrim(resultant_v(f, g, P))
    diff = ptrim([(x - y) % P for x, y in zip(a + [0] * 4, b + [0] * 4)])
    neg = ptrim([(-c) % P for c in diff])
    assert r in (diff, neg)


def test_resultant_v_matches_sympy_on_bivariate_pair():
    # f = 3 + u + (2 + u^2) w + 5 w^2 and g = 1 + 4u + (7 + u) w, Res_w
    u, w = sympy.symbols("u w")
    f_s = 3 + u + (2 + u**2) * w + 5 * w**2
    g_s = 1 + 4 * u + (7 + u) * w
    want = sympy.Poly(sympy.resultant(f_s, g_s, w), u).all_coeffs()[::-1]
    r = resultant_v([[3, 1], [2, 0, 1], [5]], [[1, 4], [7, 1]], P)
    assert ptrim(r) == ptrim([int(c) % P for c in want])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_resultant_v_matches_sympy_on_random_inputs(dv_f, dv_g, du, seed):
    r = random.Random(seed)

    def rand_coeffs(dv, lead_vanishes):
        # lower coefficients may be [] (the zero poly)
        out = [[r.randrange(P) for _ in range(r.randrange(du + 2))] for _ in range(dv)]
        if lead_vanishes:
            # leading u-coefficient (u - a)(u - b): zero at the nodes a, b
            a, b = r.randrange(4), r.randrange(4)
            out.append(pmul([(-a) % P, 1], [(-b) % P, 1], P))
        else:
            out.append([r.randrange(1, P)])
        return out

    f = rand_coeffs(dv_f, r.random() < 0.5)
    g = rand_coeffs(dv_g, r.random() < 0.5)
    assert ptrim(resultant_v(f, g, P)) == sympy_resultant_v(f, g, P)
    # v-degree 0 on one side: Res(f, c(u)) = c(u)^deg f
    c = [r.randrange(P) for _ in range(du)] + [r.randrange(1, P)]
    assert ptrim(resultant_v(f, [c], P)) == sympy_resultant_v(f, [c], P)
    assert ptrim(resultant_v([c], g, P)) == sympy_resultant_v([c], g, P)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([P, 2**31 - 1]), st.integers(0, 2**32 - 1))
def test_resultant_v_matches_sympy_on_mixed_shapes(p, seed):
    # mixed Sylvester shapes and u-degrees, repeated pairs (one with
    # untrimmed u-coefficients), a pair that differs from another only by
    # a zero v-coefficient, v-degree 0 on either side, and leading
    # u-coefficients (u - a)(u - b) that vanish at two of the nodes
    r = random.Random(seed)

    def side(dv):
        du = r.choice([2, 4, 9])
        out = [[r.randrange(p) for _ in range(r.randrange(du))] for _ in range(dv)]
        if r.random() < 0.5:
            a, b = r.randrange(8), r.randrange(8)
            out.append(pmul([(-a) % p, 1], [(-b) % p, 1], p))
        else:
            out.append([r.randrange(1, p)])
        return out

    pairs = []
    for _ in range(r.randrange(1, 7)):
        dv_f, dv_g = r.randrange(4), r.randrange(4)
        if dv_f == dv_g == 0:
            dv_g = 1
        pairs.append((side(dv_f), side(dv_g)))
    f, g = r.choice(pairs)
    pairs += [r.choice(pairs), ([c + [0] for c in f], g), ([[]] + f, g)]
    r.shuffle(pairs)
    got = [resultant_v(f, g, p) for f, g in pairs]
    assert [ptrim(x) for x in got] == [sympy_resultant_v(f, g, p) for f, g in pairs]
    assert resultant_v([[3, 1]], [[2]], p) == [1]
