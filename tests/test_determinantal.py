"""Matrix pairs and the determinant construction.

The graded determinant is validated pointwise: evaluating its coefficient
forms at random (s, t, x, y) must agree with the numeric determinant of
the scalar matrix A(s,t) x + B(s,t) y.  That check is independent of the
cofactor bookkeeping inside det_xy.
"""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BinaryForm,
    det_xy,
    entry_form,
    p1_pk_closed_form,
    phi_by_permutations,
    reducibility_witness_by_permutations,
    xy_mul,
)

from hbn.determinantal import (
    BinaryFormCurve,
    DegenerateCurveError,
    MatrixPair,
    _node_matrices,
    curve_from_json_dict,
    curve_to_json_dict,
    degree_grid,
    forced_reducibility,
    is_point_obstruction,
    pair_from_json_dict,
    pair_to_json_dict,
    pattern_support,
    phi,
    reducibility_witness,
    sample_pair,
    sample_is_point,
    split_form,
)
from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, is_prime
from hbn.exact.linalg import batch_det_mod
from hbn.splitting import HirzebruchClass, check_conditions, genus
from hbn.sweeps import desk_classes, iter_window_strata

P = DEFAULT_PRIME

CONFIGS = [
    ((-8, -4, -1), (-7, -4, 0), 3),
    ((-8, -4, -1), (-6, -4, -1), 3),
    ((-3, -2, 0), (-3, -1, 0), 1),
    ((-2, -1), (-2, 0), 2),
    ((-5, -3, -2, -1), (-5, -3, -2, 0), 1),
    ((-1,), (0,), 2),
]


def _numeric_pair(pair, s0, t0):
    k = pair.k
    A = np.zeros((k, k), dtype=np.int64)
    B = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            A[i, j] = entry_form(pair, 0, i, j).eval(s0, t0)
            B[i, j] = entry_form(pair, 1, i, j).eval(s0, t0)
    return A, B


def test_degree_grid_layout():
    e, f, m = (-8, -4, -1), (-7, -4, 0), 3
    grid = degree_grid(e, f, m)
    k = 3
    for i in range(k):
        for j in range(k):
            assert grid.a[i][j] == f[i] - e[k - 1 - j]
            assert grid.b[i][j] == grid.a[i][j] + m
    # anti-diagonal of a carries f_i - e_i
    assert [grid.a[i][k - 1 - i] for i in range(k)] == [f[i] - e[i] for i in range(k)]


def test_det_xy_matches_numeric_determinant():
    rng = random.Random(1)
    for e, f, m in CONFIGS:
        grid = degree_grid(e, f, m)
        for pattern in ("FULL", "SUT"):
            pair = sample_pair(grid, pattern, P, rng)
            forms = det_xy(pair, list(range(pair.k)), list(range(pair.k)))
            for _ in range(6):
                s0, t0 = rng.randrange(P), rng.randrange(1, P)
                x0, y0 = rng.randrange(P), rng.randrange(P)
                A, B = _numeric_pair(pair, s0, t0)
                M = (A * x0 + B * y0) % P
                want = batch_det_mod(M[None], P)[0]
                got = sum(
                    forms[i].eval(s0, t0) * pow(x0, i, P) * pow(y0, pair.k - i, P)
                    for i in range(pair.k + 1)
                ) % P
                assert got == want


def test_torus_equivariance():
    # scaling t -> lam t sends each coefficient form to its weighted scale,
    # and the determinant construction commutes with that action
    rng = random.Random(2)
    lam = 523
    e, f, m = (-3, -2, 0), (-3, -1, 0), 1
    grid = degree_grid(e, f, m)
    pair = sample_pair(grid, "FULL", P, rng)

    def scale_form(form):
        if form.is_zero():
            return form
        return BinaryForm(
            form.degree,
            tuple(c * pow(lam, i, P) % P for i, c in enumerate(form.coeffs)),
            P,
        )

    powers = np.array([pow(lam, i, P) for i in range(pair.coeffs.shape[-1])], dtype=np.int64)
    scaled = MatrixPair(pair.coeffs * powers % P, grid, pair.pattern, P)
    before = det_xy(pair, [0, 1, 2], [0, 1, 2])
    after = det_xy(scaled, [0, 1, 2], [0, 1, 2])
    for fb, fa in zip(before, after):
        assert scale_form(fb).coeffs == fa.coeffs


def test_sample_pair_respects_pattern_and_degrees():
    rng = random.Random(3)
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    pair = sample_pair(grid, "SUT", P, rng)
    k = 3
    support = pattern_support("SUT", k)
    for i in range(k):
        for j in range(k):
            for mat, degs in enumerate((grid.a, grid.b)):
                form = entry_form(pair, mat, i, j)
                if not support[mat, i, j] or degs[i][j] < 0:
                    assert form.is_zero()
                else:
                    assert form.degree == degs[i][j]
                    assert form.coeffs[-1] != 0 or form.coeffs[0] != 0


def test_phi_block_degrees_and_sut_p0():
    rng = random.Random(4)
    cls = HirzebruchClass(m=3, k=3, delta=2)
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), cls.m)
    curve = phi(sample_pair(grid, "SUT", P, rng))
    assert curve.cls == cls
    for i, c in enumerate(curve.P):
        assert len(c) == cls.delta + (cls.k - i) * cls.m + 1
    assert not any(curve.P[0])  # pure y^k coefficient dies on the SUT locus


def test_p1_pk_closed_form_matches_blocks():
    rng = random.Random(5)
    for e, f, m in CONFIGS[:3]:
        grid = degree_grid(e, f, m)
        pair = sample_pair(grid, "SUT", P, rng)
        forms = det_xy(pair, list(range(pair.k)), list(range(pair.k)))
        p1, pk = p1_pk_closed_form(pair)
        assert forms[1].coeffs == p1.coeffs or (forms[1].is_zero() and p1.is_zero())
        assert forms[pair.k].coeffs == pk.coeffs


def test_forced_reducibility_agrees_with_conditions():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    e = (-8, -4, -1)
    assert forced_reducibility(degree_grid(e, (-7, -4, 0), cls.m)).verdict == "NONE"
    bad = forced_reducibility(degree_grid(e, (-8, -2, -1), cls.m))
    assert bad.verdict != "NONE"
    assert check_conditions(e, (-8, -2, -1), cls)[1] is False


def test_reducibility_witness_factors_violating_samples():
    rng = random.Random(6)
    # the k = 2 grid splits off a 1 x 1 block: det = -det(top) * det(bottom)
    for e, f, m in [((-8, -4, -1), (-8, -2, -1), 3), ((-3, 0), (-2, 0), 1)]:
        grid = degree_grid(e, f, m)
        assert forced_reducibility(grid).verdict != "NONE"
        for _ in range(10):
            pair = sample_pair(grid, "FULL", P, rng)
            assert reducibility_witness(pair)


def test_split_form_roots():
    roots = [3, 7, 11, 2]
    coeffs = split_form(roots, P)
    form = BinaryForm(4, tuple(coeffs), P)
    assert form.degree == 4
    for r in roots:
        assert form.eval(1, r) == 0
    assert form.eval(1, 5) != 0


def test_is_point_sample_structure():
    rng = random.Random(7)
    grid = degree_grid((-8, -6, -3, -1), (-7, -5, -3, 0), 3)
    pair, meta = sample_is_point(grid, P, rng)
    assert pair.pattern == "SUT"
    assert set(meta) >= {"F_roots", "G_roots"}
    # planted roots actually kill the designated entries
    for i, roots in meta["F_roots"].items():
        form = entry_form(pair, 1, 4 - i - 1, i - 1)
        for r in roots:
            assert form.eval(1, r) == 0


@pytest.mark.parametrize(
    "e, f, digest",
    [
        (
            (-8, -4, -1),
            (-7, -4, 0),
            "05105b973dfd103036d76a8ad4e1efc2011e2abd715931dfacc9a8a1a80c91b6",
        ),
        (
            (-8, -6, -3, -1),
            (-7, -5, -3, 0),
            "8c9d6628269e25ac86fe484df51818aa92bbcaff5d4f022f0484c3b7f854c0da",
        ),
    ],
    ids=["k3", "k4"],
)
def test_is_point_draws_are_pinned(e, f, digest):
    # no CLI digest covers these draws: `section5 --lemma is` prints only ok
    pair, meta = sample_is_point(degree_grid(e, f, 3), P, random.Random(4))
    doc = json.dumps([pair.coeffs.tolist(), meta])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_sample_pair_rejects_is_point():
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    with pytest.raises(ValueError, match="unknown pattern"):
        sample_pair(grid, "IS_POINT", P, random.Random(0))


def test_xy_mul_is_pointwise_product():
    rng = random.Random(8)
    q1 = [BinaryForm.random(2, P, rng) for _ in range(3)]
    q2 = [BinaryForm.random(1, P, rng) for _ in range(2)]
    prod = xy_mul(q1, q2)
    for _ in range(5):
        s0, t0 = rng.randrange(P), rng.randrange(P)
        x0 = rng.randrange(P)
        v1 = sum(f.eval(s0, t0) * pow(x0, i, P) for i, f in enumerate(q1)) % P
        v2 = sum(f.eval(s0, t0) * pow(x0, i, P) for i, f in enumerate(q2)) % P
        vp = sum(f.eval(s0, t0) * pow(x0, i, P) for i, f in enumerate(prod)) % P
        assert vp == v1 * v2 % P


def test_pair_json_round_trip():
    rng = random.Random(9)
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    pair = sample_pair(grid, "FULL", P, rng)
    doc = json.loads(json.dumps(pair_to_json_dict(pair)))
    back = pair_from_json_dict(doc)
    before = det_xy(pair, [0, 1, 2], [0, 1, 2])
    after = det_xy(back, [0, 1, 2], [0, 1, 2])
    for fb, fa in zip(before, after):
        assert fb.coeffs == fa.coeffs


_DESK_STRATA = [(cls, e, f) for cls in desk_classes() for e, f in iter_window_strata(cls, -2, 1)]


@st.composite
def _desk_pairs(draw):
    """FULL, SUT and IS_POINT pairs on desk grids with entries in [-2, 1]."""
    cls, e, f = draw(st.sampled_from(_DESK_STRATA))
    grid = degree_grid(e, f, cls.m)
    patterns = ["FULL", "SUT"] + (["IS_POINT"] if is_point_obstruction(grid) is None else [])
    pattern = draw(st.sampled_from(patterns))
    p = draw(st.sampled_from([101, P]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if pattern == "IS_POINT":
        return sample_is_point(grid, p, rng)[0]
    return sample_pair(grid, pattern, p, rng)


def _padded(coeffs, width):
    return np.pad(coeffs, [(0, 0)] * 3 + [(0, width - coeffs.shape[-1])])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_desk_pairs())
def test_pair_codec_round_trip_keeps_coefficients_and_values(pair):
    back = pair_from_json_dict(json.loads(json.dumps(pair_to_json_dict(pair))))
    width = max(pair.coeffs.shape[-1], back.coeffs.shape[-1])
    assert np.array_equal(_padded(pair.coeffs, width), _padded(back.coeffs, width))
    assert np.array_equal(_node_matrices(pair), _node_matrices(back))
    assert pair_to_json_dict(back) == pair_to_json_dict(pair)


def test_matrix_pair_rejects_bad_coefficients():
    grid = degree_grid((-1, 0), (0, 0), 1)  # a = ((0, 1), (0, 1)), b = a + 1
    pair = sample_pair(grid, "FULL", 101, random.Random(0))
    with pytest.raises(ValueError, match="shape"):
        MatrixPair(pair.coeffs[:, :1], grid, "FULL", 101)
    for value in (-1, 101):
        bad = pair.coeffs.copy()
        bad[1, 0, 0, 0] = value
        with pytest.raises(ValueError, match="must lie in"):
            MatrixPair(bad, grid, "FULL", 101)
    bad = pair.coeffs.copy()
    bad[0, 0, 0, 1] = 1  # a_11 = 0, so slot 1 is above the grid degree
    with pytest.raises(ValueError, match="above its entry's grid degree"):
        MatrixPair(bad, grid, "FULL", 101)


def test_curve_json_round_trip():
    rng = random.Random(10)
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    curve = phi(sample_pair(grid, "FULL", P, rng))
    doc = json.loads(json.dumps(curve_to_json_dict(curve)))
    assert doc["k"] == 3 and doc["delta"] == 2 and doc["m"] == 3
    back = curve_from_json_dict(doc)
    assert back == curve
    assert hash(back) == hash(curve)


def test_curve_rejects_bad_coefficients():
    cls = HirzebruchClass(m=1, k=2, delta=1)  # P_i has 1 + (2 - i) + 1 coefficients
    good = ((1, 2, 3, 4), (0, 5, 6), (7, 8))
    assert BinaryFormCurve(cls, good, 11).P == good
    with pytest.raises(ValueError, match="need k\\+1 coefficient forms"):
        BinaryFormCurve(cls, good[:2], 11)
    with pytest.raises(ValueError, match="P_1 has 2 coefficients, not 3"):
        BinaryFormCurve(cls, (good[0], (5, 6), good[2]), 11)
    for value in (-1, 11):
        with pytest.raises(ValueError, match="P_2 coefficients must lie in \\[0, 11\\)"):
            BinaryFormCurve(cls, good[:2] + ((7, value),), 11)
    with pytest.raises(DegenerateCurveError):
        BinaryFormCurve(cls, ((0,) * 4, (0,) * 3, (0,) * 2), 11)
    doc = curve_to_json_dict(BinaryFormCurve(cls, good, 11))
    assert curve_from_json_dict(doc).P == good
    for P_doc in ([[1, 2, 3, 4], [5, 6], [7, 8], [9]], [[1, 2, 3, 4, 0], [0, 5, 6], [7, 8]]):
        with pytest.raises(ValueError):
            curve_from_json_dict({**doc, "P": P_doc})


def _prime_above(n):
    q = max(n + 1, 3)
    while not is_prime(q):
        q += 1
    return q


def _least_admissible_prime(delta, k, m):
    """The least prime with p > delta + k*m and p >= k, p = k included."""
    q = max(delta + k * m + 1, k, 2)
    while not is_prime(q):
        q += 1
    return q


@st.composite
def _pairs(draw):
    """Pairs on small grids, types not necessarily sorted, so that the
    forced-reducibility verdicts include grids where the identity fails."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, 2))
    delta = draw(st.integers(0, 3))
    e = draw(st.lists(st.integers(-3, 2), min_size=k, max_size=k))
    f = draw(st.lists(st.integers(-3, 2), min_size=k - 1, max_size=k - 1))
    f.append(sum(e) + delta - sum(f))
    grid = degree_grid(e, f, m)
    least = _least_admissible_prime(delta, k, m)
    p = draw(st.sampled_from([least, _prime_above(max(delta + k * m, k)), 101, P]))
    pattern = draw(st.sampled_from(["FULL", "SUT"]))
    return sample_pair(grid, pattern, p, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs())
def test_phi_and_witness_match_permutation_oracle(pair):
    try:
        want = phi_by_permutations(pair)
    except DegenerateCurveError:
        with pytest.raises(DegenerateCurveError):
            phi(pair)
    else:
        assert phi(pair) == want
    assert reducibility_witness(pair) == reducibility_witness_by_permutations(pair)


def test_phi_rejects_primes_at_the_degree_bound():
    # delta + k*m = 2 + 3*3 = 11: the t nodes 0..11 collide mod 11
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    with pytest.raises(PrimeTooSmallError, match="needs p > delta \\+ k\\*m = 11 and p >= k = 3"):
        phi(sample_pair(grid, "FULL", 11, random.Random(0)))
    pair = sample_pair(grid, "FULL", 13, random.Random(0))
    assert phi(pair) == phi_by_permutations(pair)
    # p = k = 3 is enough: the x nodes are 0..2 and (1 : 0)
    flat = degree_grid((0, 0, 0), (0, 0, 0), 0)
    pair = sample_pair(flat, "FULL", 3, random.Random(0))
    assert phi(pair) == phi_by_permutations(pair)
    # k = 5 needs p >= 5 for the x nodes 0..4, though delta + k*m = 0
    flat = degree_grid((0,) * 5, (0,) * 5, 0)
    with pytest.raises(PrimeTooSmallError, match="p >= k = 5"):
        phi(sample_pair(flat, "FULL", 3, random.Random(0)))
