"""Field and dense-polynomial layer, checked against naive reference code."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import QuotientField, qgcd

from hbn.exact.field import (
    DEFAULT_PRIME,
    inv_mod,
    is_prime,
    legendre,
    quadratic_nonresidue,
    sqrt_mod,
)
from hbn.exact.poly import (
    interp_nodes,
    irreducible_factors,
    pdeg,
    pdivmod,
    peval,
    pgcd,
    pmod,
    pmonic,
    pinvmod,
    pmul,
    ppowmod,
    pscale,
    psub,
    ptrim,
    squarefree_part,
)
from hbn.exact.poly2 import gcd_mod, restrict

P = DEFAULT_PRIME
PRIMES = [2, 3, 5, 7, 101, 997, 10007]


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(200):
        assert is_prime(n) == _trial_division(n), n
    for n in (10007, 10006, 32003, 1 << 16):
        assert is_prime(n) == _trial_division(n), n


@given(st.integers(1, P - 1))
def test_inv_mod(a):
    assert a * inv_mod(a, P) % P == 1


@given(st.integers(0, P - 1))
def test_sqrt_of_square(a):
    r = sqrt_mod(a * a % P, P)
    assert r is not None and r * r % P == a * a % P


def test_nonresidue_has_no_root():
    for p in (7, 101, 10007):
        nr = quadratic_nonresidue(p)
        assert legendre(nr, p) == -1
        assert sqrt_mod(nr, p) is None


@given(
    st.integers(0, P - 1), st.integers(0, P - 1),
    st.integers(0, P - 1), st.integers(0, P - 1),
)
def test_fp2_inverse(a, b, c, d):
    # F_p^2 = F_p[w]/(w^2 - nr), elements a + b*w as the polys [a, b]
    q = [-quadratic_nonresidue(P) % P, 0, 1]
    x, y = ptrim([a, b]), ptrim([c, d])

    def mul(f, g):
        return pmod(pmul(f, g, P), q, P)

    if x:
        inv = pinvmod(x, q, P)
        assert mul(x, inv) == [1]
        assert tuple(inv) + (0,) * (2 - len(inv)) == QuotientField(q, P).inv((a, b))
    else:
        with pytest.raises(ZeroDivisionError):
            pinvmod(x, q, P)
    # associativity spot
    assert mul(mul(x, y), [2, 3]) == mul(x, mul(y, [2, 3]))


coeffs = st.lists(st.integers(0, P - 1), min_size=0, max_size=8)


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_pdivmod_reconstructs(f, g):
    g = ptrim(g)
    if pdeg(g) < 0:
        return
    q, r = pdivmod(f, g, P)
    assert pdeg(r) < pdeg(g)
    back = [(x + y) % P for x, y in zip(pmul(q, g, P) + [0] * 20, r + [0] * 20)]
    assert ptrim(back) == ptrim([x % P for x in f])


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_pgcd_divides_both(f, g):
    f, g = ptrim(f), ptrim(g)
    d = pgcd(f, g, P)
    if pdeg(d) < 0:
        assert pdeg(ptrim(f)) < 0 and pdeg(ptrim(g)) < 0
        return
    assert pdeg(pmod(f, d, P)) < 0
    assert pdeg(pmod(g, d, P)) < 0
    # monic normalization
    assert d[-1] == 1


def _roots(f):
    """Distinct F_p roots of f, from its linear irreducible factors."""
    return sorted(-q[0] % P for q, _ in irreducible_factors(f, P) if pdeg(q) == 1)


def test_roots_of_split_polynomial():
    rng = random.Random(5)
    pts = rng.sample(range(P), 6)
    f = [1]
    for a in pts:
        f = pmul(f, [(-a) % P, 1], P)
    assert _roots(f) == sorted(pts)
    for a in pts:
        assert peval(f, a, P) == 0


def test_roots_with_multiplicity_and_irreducible_part():
    # (x - 2)^2 * (x^2 - nr) has the double root once in the root list
    nr = quadratic_nonresidue(P)
    f = pmul(pmul([P - 2, 1], [P - 2, 1], P), [(-nr) % P, 0, 1], P)
    assert _roots(f) == [2]


def test_irreducible_factors_reconstruct():
    f = [3, 1, 4, 1, 5, 9, 2, 6]
    fac = irreducible_factors(f, P)
    prod = [1]
    for g, mult in fac:
        assert g[-1] == 1
        for _ in range(mult):
            prod = pmul(prod, g, P)
    assert ptrim(prod) == pmonic(f, P)


def test_squarefree_part_kills_multiplicity():
    g = [1, 2, 3, 1]
    f = pmul(pmul(g, g, P), [5, 1], P)
    sf = squarefree_part(f, P)
    assert pdeg(pmod(sf, pmonic(g, P), P)) < 0
    assert pdeg(sf) == pdeg(g) + 1


def test_interp_nodes_round_trip():
    rng = random.Random(3)
    f = [rng.randrange(P) for _ in range(6)]
    ys = np.array([peval(f, x, P) for x in range(9)], dtype=np.int64)
    assert ptrim(interp_nodes(ys, P).tolist()) == ptrim(f)


def test_ppowmod_matches_naive():
    base, mod = [2, 3, 1], [1, 0, 0, 1]
    acc = [1]
    for _ in range(13):
        acc = pmod(pmul(acc, base, P), mod, P)
    assert ppowmod(base, 13, mod, P) == acc


@given(coeffs, st.integers(0, P - 1), st.integers(0, P - 1))
@settings(max_examples=40)
def test_eval_is_ring_hom(f, c, x):
    scaled = pscale(f, c, P)
    assert peval(scaled, x, P) == c * peval(f, x, P) % P
    assert peval(psub(f, f, P), x, P) == 0


def _python_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return ptrim([c % p for c in out])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([P, 2**31 - 1]),
    st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=24),
    st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=24),
)
def test_pmul_matches_python_product(p, f, g):
    # lengths cross the 16-term switch to numpy convolution
    f, g = [c % p for c in f], [c % p for c in g]
    assert pmul(f, g, p) == _python_product(f, g, p)


def test_pmul_exact_where_int64_convolution_overflows():
    p = 2**31 - 1
    f = [p - 1] * 10
    assert pmul(f, f, p) == _python_product(f, f, p)


def _random_irreducible(d, p, rng):
    while True:
        q = [rng.randrange(p) for _ in range(d)] + [1]
        if irreducible_factors(q, p) == [(q, 1)]:
            return q


def _vmul(f, g, p):
    """Product of two polynomials in v with F_p[u] coefficients."""
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = psub(out[i + j], pscale(pmul(a, b, p), -1, p), p)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1))
def test_gcd_mod_matches_the_quotient_field_oracle(d, planted, vanish, seed):
    # three polynomials in v over F_31[u] sharing a planted factor of
    # v-degree 0..2, the third one a multiple of q (restricting to zero)
    # when `vanish`; their gcd over F_31[u]/(q) against `qgcd`, padded.
    p, rng = 31, random.Random(seed)
    q = _random_irreducible(d, p, rng)

    def rand_v(deg_v):
        return [ptrim([rng.randrange(p) for _ in range(d + 1)]) for _ in range(deg_v)] + [[1]]

    # gcd(f1, f2) keeps the factor x, which only f3 removes
    common, x, y = rand_v(planted), rand_v(1), rand_v(rng.randrange(1, 3))
    fvs = [_vmul(common, x, p), _vmul(_vmul(common, x, p), y, p), _vmul(common, y, p)]
    if vanish:
        fvs[2] = [pmul(c, q, p) for c in fvs[2]]
    K = QuotientField(q, p)

    def pad(c):
        return tuple(c) + (0,) * (d - len(c))

    want: list = []
    for f in fvs:
        want = qgcd(want, [pad(c) for c in restrict(f, q, p)], K)
    got = gcd_mod(fvs, q, p)
    assert [pad(c) for c in got] == want
    assert got and got[-1] == [1] and len(got) > planted


def test_restrict_and_gcd_mod_over_a_root_that_kills_coefficients():
    # mod u + 1, 1 + u vanishes in the middle of a list, and u^2 + u at its top
    assert restrict([[2], [1, 1], [3, 0, 1], [0, 1, 1]], [1, 1], P) == [[2], [], [4]]
    # u and u v - u^2 v^2 are zero mod u: no gcd to normalise
    assert gcd_mod([[[0, 1]], [[], [0, 1], [0, 0, P - 1]]], [0, 1], P) == []
