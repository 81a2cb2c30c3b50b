"""Differential of the determinant map and the rank certificates.

The central invariant: every column of the fast cofactor-assembled
differential must equal the epsilon part of a literal dual-number
determinant expansion (dphi_column_dual).  The two routes share no
code: the oracle has its own form arithmetic.  The cofactors
themselves, computed by evaluation and interpolation, are checked
against det_xy permutation expansions of the minors, and the
Faddeev-LeVerrier cofactor recurrence against signed minors expanded in
Python ints.
"""

import dataclasses
import random
from itertools import permutations

import numpy as np
import pytest
from oracles import det_xy, dphi_column_dual

from hbn.determinantal import degree_grid, sample_is_point, sample_pair
from hbn.differential import (
    SELECTORS,
    _cofactors,
    cofactor_forms,
    dominance_rank,
    dphi_matrix,
    lemma_is_check,
    lemma_main_check,
    lemma_main_containment,
    lemma_sq_check,
    product_rule_rank,
    super_anti_product,
    tangent_basis,
)
from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, is_prime
from hbn.splitting import HirzebruchClass

P = DEFAULT_PRIME

CONFIGS = [
    ((-8, -4, -1), (-7, -4, 0), 3, 2),
    ((-3, -2, 0), (-3, -1, 0), 1, 0),
    ((-2, -1), (-2, 0), 2, 1),
    ((-5, -3, -2, -1), (-5, -3, -2, 0), 1, 1),
]


def _pair(e, f, m, pattern, seed):
    grid = degree_grid(e, f, m)
    return sample_pair(grid, pattern, P, random.Random(seed))


def test_selector_cardinalities_k3():
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    full = len(tangent_basis(grid, "FULL_PRIME"))
    tp_coords = tangent_basis(grid, "T_PRIME")
    tpp_coords = tangent_basis(grid, "T_DOUBLE_PRIME")
    corner = len(tangent_basis(grid, "T_CORNER"))
    inductive = len(tangent_basis(grid, "T_INDUCTIVE"))
    assert full > len(tp_coords) > len(tpp_coords)
    assert len(tpp_coords) == corner + inductive
    # the corner entry (k, k) of A is the only entry dropped from T' to T''
    tp_entries = {(c[0], c[1], c[2]) for c in tp_coords}
    tpp_entries = {(c[0], c[1], c[2]) for c in tpp_coords}
    assert tp_entries - tpp_entries == {("A", 2, 2)}


def test_t_double_prime_is_corner_plus_inductive():
    for e, f, m, _ in CONFIGS:
        grid = degree_grid(e, f, m)
        tpp = set(tangent_basis(grid, "T_DOUBLE_PRIME"))
        corner = set(tangent_basis(grid, "T_CORNER"))
        inductive = set(tangent_basis(grid, "T_INDUCTIVE"))
        assert corner | inductive == tpp
        assert not (corner & inductive)


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("include_p0", [False, True])
def test_fast_differential_matches_dual_number_oracle(selector, include_p0):
    for idx, (e, f, m, _) in enumerate(CONFIGS[:3]):
        pattern = "SUT" if selector != "FULL_PRIME" else "FULL"
        pair = _pair(e, f, m, pattern, seed=idx)
        M = dphi_matrix(pair, selector, include_p0=include_p0)
        for c, coord in enumerate(M.coords):
            want = dphi_column_dual(pair, coord, include_p0=include_p0)
            assert np.array_equal(M.entries[:, c] % P, np.asarray(want) % P), (
                selector,
                coord,
            )


def test_dominance_rank_trigonal_report():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    rep = dominance_rank((-8, -4, -1), (-7, -4, 0), cls)
    assert rep == {
        "target_dim": 30,
        "source_dim": 68,
        "max_rank": 30,
        "trials": 1,
        "verdict": "DOMINANT",
    }


def test_dominance_rank_requires_delta_budget():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    with pytest.raises(ValueError):
        dominance_rank((-8, -4, -1), (-8, -4, -1), cls)


@pytest.mark.parametrize("trials", [0, -1])
def test_dominance_rank_requires_a_trial(trials):
    cls = HirzebruchClass(m=3, k=3, delta=2)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        dominance_rank((-8, -4, -1), (-7, -4, 0), cls, trials=trials)


def test_dominance_not_achieved_on_violating_stratum():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    rep = dominance_rank((-8, -4, -1), (-8, -2, -1), cls)
    assert rep["verdict"] == "NOT_ACHIEVED"
    assert rep["max_rank"] < rep["target_dim"]


def test_super_anti_product_degree():
    pair = _pair((-8, -4, -1), (-6, -4, -1), 3, "SUT", seed=0)
    prod, degree = super_anti_product(pair)
    # b_{1,2} + b_{2,1} with the trigonal grid: degree 1 here
    assert degree == 1 and prod


def test_lemma_sq_and_planted_failure():
    # needs a stratum where the super-anti-diagonal product has a root,
    # otherwise the last block alone spans the first one
    grid = degree_grid((-8, -4, -1), (-6, -4, -1), 3)
    pair = sample_pair(grid, "SUT", P, random.Random(1))
    assert lemma_sq_check(pair)
    k = pair.k
    coeffs = pair.coeffs.copy()
    coeffs[0, k - 1, k - 1] = 0
    planted = type(pair)(coeffs, grid, pair.pattern, P)
    assert not lemma_sq_check(planted)


def test_lemma_main_on_spot_strata():
    for e, f, m, _ in CONFIGS[:3]:
        pair = _pair(e, f, m, "SUT", seed=2)
        assert lemma_main_containment(pair, dphi_matrix(pair, "T_PRIME"))
        assert lemma_main_check(pair)


def test_lemma_main_requires_triangular_pattern():
    pair = _pair((-8, -4, -1), (-7, -4, 0), 3, "FULL", seed=3)
    with pytest.raises(ValueError):
        lemma_main_check(pair)


def test_lemma_main_containment_fails_on_violating_stratum():
    # condition (2) fails, the super-anti-diagonal product vanishes, and
    # the divisibility description of the image breaks down
    pair = _pair((-8, -4, -1), (-8, -2, -1), 3, "SUT", seed=3)
    assert super_anti_product(pair)[0] == []
    assert not lemma_main_containment(pair, dphi_matrix(pair, "T_PRIME"))


def test_lemma_main_bounds_the_quotient_by_the_form_degree():
    # B_11 = c s (its t slot zeroed) is the whole super-anti-diagonal of
    # this k = 2 pair: t-degree 0, form degree 1.  A block-1 column has
    # form degree D = 3, so its quotient by c s has degree at most 2; a
    # bound from the t-degree (3) would pass the column c t^3, which c s
    # does not divide.
    pair = _pair((-2, -1), (-2, 0), 2, "SUT", seed=0)
    coeffs = pair.coeffs.copy()
    coeffs[1, 0, 0, 1] = 0
    planted = type(pair)(coeffs, pair.grid, "SUT", P)
    g, degree = super_anti_product(planted)
    assert (len(g), degree) == (1, 1)
    M = dphi_matrix(planted, "T_PRIME")
    assert lemma_main_check(planted)  # the lemma holds at this pair
    column = np.zeros((M.entries.shape[0], 1), dtype=np.int64)
    column[3] = g[0]  # t^3 in block 1, zero in block 2
    wide = dataclasses.replace(M, entries=np.hstack([M.entries, column]))
    assert not lemma_main_containment(planted, wide)


def test_lemma_is_on_spot_strata():
    assert lemma_is_check(3, (-8, -4, -1), (-7, -4, 0), 3, rng=random.Random(4))
    assert lemma_is_check(4, (-8, -6, -3, -1), (-7, -5, -3, 0), 3, rng=random.Random(4))


def test_lemma_is_validates_lengths():
    with pytest.raises(ValueError):
        lemma_is_check(3, (-8, -4), (-7, -4, 0), 3)


@pytest.mark.parametrize("tries", [0, -1])
def test_lemma_is_rejects_fewer_than_one_try(tries):
    with pytest.raises(ValueError, match=f"tries must be at least 1, got {tries}"):
        lemma_is_check(3, (-8, -4, -1), (-7, -4, 0), 3, rng=random.Random(4), tries=tries)


def test_product_rule_witness_small():
    for d1 in range(4):
        for d2 in range(4):
            assert product_rule_rank((d1, d2))


def _scale_bottom_row(pair, h):
    """The pair with the bottom-row A entries past the first column times h."""
    coeffs = pair.coeffs.copy()
    coeffs[0, pair.k - 1, 1:] = coeffs[0, pair.k - 1, 1:] * (h % pair.p) % pair.p
    return type(pair)(coeffs, pair.grid, pair.pattern, pair.p)


def test_bottom_row_scale_semicontinuity():
    # rank at the degenerate limit h=0 never exceeds the generic rank
    pair = _pair((-8, -4, -1), (-7, -4, 0), 3, "SUT", seed=5)
    limit = dphi_matrix(_scale_bottom_row(pair, 0), "T_INDUCTIVE").rank()
    generic = max(
        dphi_matrix(_scale_bottom_row(pair, h), "T_INDUCTIVE").rank() for h in (1, 2, 3)
    )
    assert limit <= generic


def test_cofactor_forms_k1():
    pair = _pair((-1,), (0,), 2, "FULL", seed=6)
    coef = cofactor_forms(pair)
    # the empty minor: C_11 = 1, with t-coefficients up to delta + k*m = 3
    assert coef.shape == (1, 1, 1, 4)
    assert coef.dtype == np.int64
    assert coef[0, 0, 0].tolist() == [1, 0, 0, 0]


# k = 1..5 grids with negative a- and b-degrees, and whether each admits
# the special inductive point
KERNEL_CONFIGS = [
    ((-1,), (0,), 2, False),
    ((-2, -1), (-2, 0), 2, False),
    ((-8, -4, -1), (-7, -4, 0), 3, True),
    ((-8, -4, -1), (-8, -2, -1), 3, False),
    ((-5, -3, -2, -1), (-5, -3, -2, 0), 1, False),
    ((-8, -6, -3, -1), (-7, -5, -3, 0), 3, True),
    ((-3, -2, -1, -1, 0), (-3, -2, -1, 0, 0), 1, True),
]


def _smallest_admissible_prime(grid):
    """The least prime cofactor_forms accepts: p > delta + k*m and p >= k."""
    q = max(grid.delta + grid.k * grid.m + 1, grid.k)
    while not is_prime(q):
        q += 1
    return q


def _kernel_pairs(p):
    """Pairs over every kernel config at p, or at each config's smallest
    admissible prime when p is None (p = 7 for the k = 5 config, where
    the cofactor recurrence divides by 2, 3 and 4 mod 7)."""
    for idx, (e, f, m, is_point) in enumerate(KERNEL_CONFIGS):
        grid = degree_grid(e, f, m)
        rng = random.Random(100 + idx)
        q = _smallest_admissible_prime(grid) if p is None else p
        yield sample_pair(grid, "FULL", q, rng)
        yield sample_pair(grid, "SUT", q, rng)
        if is_point:
            yield sample_is_point(grid, q, rng)[0]


def _signed_cofactor(pair, r, c):
    """C_rc as x-graded forms, by permutation expansion of the minor."""
    k = pair.k
    rows = [i for i in range(k) if i != r]
    cols = [j for j in range(k) if j != c]
    forms = det_xy(pair, rows, cols)
    return [q.neg() for q in forms] if (r + c) % 2 else forms


def _python_det(M, p):
    """Determinant by permutation expansion in Python ints (1 when empty)."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total % p


@pytest.mark.parametrize("p", [7, P, 2**31 - 1])
def test_faddeev_leverrier_cofactors_match_signed_minors(p):
    # p = 7 >= k for every k here, so the recurrence may divide by 1..k-1
    rng_ = random.Random(p)
    for k in range(1, 7):
        mats = []
        for i in range(6):
            M = [[rng_.randrange(p) for _ in range(k)] for _ in range(k)]
            if i == 1:
                M[-1] = [3 * x % p for x in M[0]]  # rank k - 1 (k > 1)
            elif i == 2 and k > 2:
                M[-1] = M[-2] = M[0]  # rank <= k - 2: adjugate 0
            elif i == 3:
                M = [[0] * k for _ in range(k)]
            mats.append(M)
        # two leading stack axes, as cofactor_forms passes (t, x, k, k)
        got = _cofactors(np.array(mats, dtype=np.int64).reshape(2, 3, k, k), p)
        got = got.reshape(6, k, k)
        for M, C in zip(mats, got):
            for r in range(k):
                for c in range(k):
                    minor = [[M[i][j] for j in range(k) if j != c] for i in range(k) if i != r]
                    assert int(C[r, c]) == (-1) ** (r + c) * _python_det(minor, p) % p


@pytest.mark.parametrize("p", [P, 2**31 - 1, None], ids=["10007", "2147483647", "smallest"])
def test_cofactor_kernel_matches_det_xy_minors(p):
    seen_negative = False
    primes = set()
    for pair in _kernel_pairs(p):
        primes.add((pair.k, pair.p))
        grid, k = pair.grid, pair.k
        coef = cofactor_forms(pair)
        assert coef.shape == (k, k, k, grid.delta + k * grid.m + 1)
        assert coef.dtype == np.int64
        for r in range(k):
            for c in range(k):
                if grid.b[r][c] < 0:
                    seen_negative = True
                    continue  # no tangent coordinates; may alias
                want = np.zeros(coef.shape[2:], dtype=np.int64)
                for xpow, form in enumerate(_signed_cofactor(pair, r, c)):
                    want[xpow, : len(form.coeffs)] = form.coeffs
                assert np.array_equal(coef[r, c], want), (pair.pattern, grid.a, r, c)
    assert seen_negative
    assert p is not None or (5, 7) in primes


def _reference_dphi(pair, selector, include_p0):
    """dphi_matrix filled coefficient by coefficient from det_xy cofactors."""
    M = dphi_matrix(pair, selector, include_p0=include_p0)
    offsets = dict(zip(M.blocks, np.cumsum((0,) + M.sizes[:-1])))
    ref = np.zeros_like(M.entries)
    for col, (mname, r, c, jj) in enumerate(M.coords):
        for xpow, form in enumerate(_signed_cofactor(pair, r, c)):
            blk = xpow + 1 if mname == "A" else xpow
            if blk not in offsets:
                continue
            for idx, coeff in enumerate(form.coeffs):
                ref[offsets[blk] + jj + idx, col] = coeff
    return M.entries, ref


@pytest.mark.parametrize("include_p0", [False, True])
def test_dphi_matrix_matches_det_xy_reference_fill(include_p0):
    for pair in _kernel_pairs(P):
        selectors = ("FULL_PRIME",) if pair.pattern == "FULL" else SELECTORS
        for selector in selectors:
            got, ref = _reference_dphi(pair, selector, include_p0)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref), (pair.pattern, selector, pair.grid.a)


def test_cofactor_forms_rejects_small_primes():
    # delta + k*m = 2 + 3*3 = 11: p = 11 cannot interpolate, p = 13 can
    grid = degree_grid((-8, -4, -1), (-7, -4, 0), 3)
    with pytest.raises(PrimeTooSmallError, match="p > delta \\+ k\\*m = 11"):
        cofactor_forms(sample_pair(grid, "FULL", 11, random.Random(0)))
    assert cofactor_forms(sample_pair(grid, "FULL", 13, random.Random(0))).shape[3] == 12


@pytest.mark.parametrize(
    "e, f, m, delta",
    [
        ((-8, -4, -1), (-7, -4, 0), 3, 2),
        ((-2, 1, 1), (-1, 1, 1), 3, 1),
        ((-7, -5, -3, -1), (-7, -4, -2, -1), 2, 2),
        ((-6, -3, 1, 2), (-6, -2, 1, 2), 3, 1),
    ],
)
def test_dominance_rank_at_largest_supported_prime(e, f, m, delta):
    cls = HirzebruchClass(m=m, k=len(e), delta=delta)
    small = dominance_rank(e, f, cls, p=P)
    large = dominance_rank(e, f, cls, p=2**31 - 1)
    assert small["verdict"] == large["verdict"] == "DOMINANT"
    assert large["max_rank"] == small["max_rank"] == small["target_dim"]
