"""Exact linear algebra mod p, and the transition-matrix oracles.

The library's elimination kernels are validated independently:
matrix_rank on matrices with rank known by construction (products U V
with embedded identity blocks) and against an elimination on Python
ints, batch_det_mod against permutation expansion and Bareiss over Z.
The rest checks oracles that other tests lean on (tests/oracles.py):
nullspace_vector on planted ranks, and birkhoff_splitting against a
section-counting oracle: the degree tuple (d_i) must reproduce h0 of
every twist, and h0 is computed here directly as the nullity of a
coefficient-constraint system, independent of the column reduction."""

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    TransitionMatrix,
    bareiss_det,
    birkhoff_splitting,
    fp2_matrix_rank,
    nullspace_vector,
    random_unimodular,
    transition_diagonal,
    transition_product,
)

from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, quadratic_nonresidue
from hbn.exact.linalg import batch_det_mod, matrix_rank
from hbn.exact.poly import _eval_at_nodes, peval

P = DEFAULT_PRIME


def known_rank_matrix(rows, cols, r, rng):
    """U V with identity blocks, so the rank is exactly r."""
    U = np.zeros((rows, r), dtype=np.int64)
    V = np.zeros((r, cols), dtype=np.int64)
    U[:r, :r] = np.eye(r, dtype=np.int64)
    V[:, :r] = np.eye(r, dtype=np.int64)[:r]
    for i in range(r, rows):
        U[i] = [rng.randrange(P) for _ in range(r)]
    for j in range(r, cols):
        V[:, j] = [rng.randrange(P) for _ in range(r)]
    return (U @ V) % P


def test_matrix_rank_on_known_rank():
    rng = random.Random(99)
    for _ in range(25):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        r = rng.randrange(0, min(rows, cols) + 1)
        M = known_rank_matrix(rows, cols, r, rng)
        assert matrix_rank(M, P) == r


def _python_pivots(rows, p):
    """Pivot columns over F_p by Gaussian elimination on lists of Python ints."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return pivots


def _planted_rank(p, rows, cols, planted, seed, zero_share=0.2):
    """U V with U, V random of inner size planted, some columns zeroed."""
    r_ = random.Random(seed)
    planted = min(planted, rows, cols)
    U = [[r_.randrange(p) for _ in range(planted)] for _ in range(rows)]
    V = [[r_.randrange(p) for _ in range(cols)] for _ in range(planted)]
    M = [[sum(U[i][l] * V[l][j] for l in range(planted)) % p for j in range(cols)] for i in range(rows)]
    for j in range(cols):
        if r_.random() < zero_share:  # zero columns: pivot-free steps
            for row in M:
                row[j] = 0
    return M, planted


# matrix_rank reduces its block never at 10007, about every third pivot
# at 1073741789 (the largest prime below 2^30) and every pivot at 2^31 - 1
@pytest.mark.parametrize("p", [3, P, 1073741789, 2**31 - 1])
@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 40),
    st.integers(0, 16),
    st.integers(0, 2**32 - 1),
)
@example(rows=40, cols=12, planted=9, seed=1)  # tall: its 12-row transpose is walked
@example(rows=50, cols=110, planted=50, seed=2)  # full row rank at 2^31 - 1, dominance-sized
def test_matrix_rank_matches_python_elimination(p, rows, cols, planted, seed):
    M, planted = _planted_rank(p, rows, cols, planted, seed)
    want = len(_python_pivots(M, p))
    assert want <= planted
    assert matrix_rank(np.array(M, dtype=np.int64), p) == want


@pytest.mark.parametrize("p", [3, P, 1073741789, 2**31 - 1])
@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 40),
    st.integers(0, 16),
    st.integers(0, 2**32 - 1),
)
@example(rows=16, cols=40, planted=16, seed=0)  # 16 pivots
def test_nullspace_vector_on_planted_rank(p, rows, cols, planted, seed):
    # few zero columns: a zero column before the rank is reached is the
    # first free column, and the kernel vector is then a unit vector
    M, _ = _planted_rank(p, rows, cols, planted, seed, zero_share=0.02)
    v = nullspace_vector(np.array(M, dtype=np.int64), p)
    pivots = _python_pivots(M, p)
    free = [c for c in range(cols) if c not in pivots]
    assert (v is None) == (len(pivots) == cols)
    if v is None:
        return
    v = [int(x) for x in v]
    assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in M)
    assert [v[c] for c in free] == [1] + [0] * (len(free) - 1)


def test_rref_pivots_and_nullspace():
    rng = random.Random(99)
    M = known_rank_matrix(6, 8, 3, rng)
    assert matrix_rank(M, P) == 3
    v = nullspace_vector(M, P)
    assert v is not None
    assert not (M @ (np.asarray(v) % P) % P).any()
    # full column rank: no kernel
    sq = known_rank_matrix(5, 5, 5, rng)
    assert nullspace_vector(sq, P) is None


def _perm_det(M, p):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * int(M[i][perm[i]]) % p
        total = (total + term) % p
    return total % p


@pytest.mark.parametrize("p", [P, 2**31 - 1])
def test_batch_det_matches_permutation_expansion(p):
    # _perm_det works in Python ints, so it is exact at any p; each stack
    # mixes generic, row-swapping and singular matrices, 1x1 included
    r_ = random.Random(p)
    for r in range(1, 6):
        mats = []
        for i in range(16):
            M = np.array([[r_.randrange(p) for _ in range(r)] for _ in range(r)], dtype=np.int64)
            if i % 4 == 1:
                M[:-1, 0] = 0  # only the last row can pivot column 0
                M[-1, 0] = r_.randrange(1, p)
            elif i % 4 == 2 and r > 1:
                M[-1] = M[0] * r_.randrange(p) % p  # dependent rows
            elif i % 4 == 3:
                M[:, r_.randrange(r)] = 0
            mats.append(M)
        got = batch_det_mod(np.stack(mats), p)
        want = [_perm_det(M, p) for M in mats]
        assert [int(d) for d in got] == want
        assert want[3] == 0 and (r == 1 or want[2] == 0)


# both sides of the inverse table's limit (2^16), the largest prime below
# 2^20, the one just above it, and the largest prime the kernels accept
KERNEL_PRIMES = [3, 10007, 65521, 65537, 1048573, 1048583, 2**31 - 1]


def _awkward_stack(n, r, p, rng):
    """n matrices cycling through a generic one, a zero leading pivot, a
    first column that only the last row can pivot, a zero column and a
    repeated row; entries drawn from the top of [0, p) as often as not."""
    mats = []
    for i in range(n):
        top = [[rng.choice((rng.randrange(p), p - 1 - rng.randrange(3))) for _ in range(r)] for _ in range(r)]
        M = np.array(top)
        kind = (i + r) % 5
        if kind == 1:
            M[0, 0] = 0
        elif kind == 2:
            M[:-1, 0] = 0
        elif kind == 3:
            M[:, rng.randrange(r)] = 0
        elif kind == 4 and r > 1:
            M[-1] = M[rng.randrange(r - 1)]
        mats.append(M)
    return np.array(mats, dtype=np.int64).reshape(n, r, r)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_batch_det_matches_bareiss_over_z(p):
    # the primes reach both multiplier modes: the inverse table up to 2^16,
    # the division-free update (reducing the block at every column) above
    rng = random.Random(p)
    for r in range(1, 10):
        for n in (0, 1, 5):
            mats = _awkward_stack(n, r, p, rng)
            got = batch_det_mod(mats, p)
            assert got.shape == (n,)
            assert [int(d) for d in got] == [bareiss_det(M) % p for M in mats], (r, n)


def test_eval_at_nodes_matches_horner_at_the_largest_prime():
    # 40 coefficients near p = 2^31 - 1: the 16-bit split must keep every
    # int64 sum exact; peval is Horner in Python ints
    p = 2**31 - 1
    rng = random.Random(40)
    coeffs = [[rng.choice((rng.randrange(p), p - 1)) for _ in range(40)] for _ in range(6)]
    nodes = 50
    got = _eval_at_nodes(np.array(coeffs, dtype=np.int64).reshape(2, 3, 40), nodes, p)
    assert got.shape == (nodes, 2, 3)
    want = [[peval(c, i, p) for c in coeffs] for i in range(nodes)]
    assert got.reshape(nodes, 6).tolist() == want


def test_fp2_rank_embeds_and_detects_dependence():
    nr = quadratic_nonresidue(P)
    M = known_rank_matrix(4, 6, 2, random.Random(99))
    assert fp2_matrix_rank(M, np.zeros_like(M), P, nr) == 2
    # second row = (a + b w) * first row: rank drops to 1 over F_p^2
    a, b = 3, 5
    re = np.array([[1, 2, 0], [a, 2 * a, 0]]) % P
    im = np.array([[0, 0, 0], [b, 2 * b, 0]]) % P
    assert fp2_matrix_rank(re, im, P, nr) == 1
    # breaking the proportionality restores full rank
    im2 = im.copy()
    im2[1, 2] = 1
    assert fp2_matrix_rank(re, im2, P, nr) == 2


# ---------------------------------------------------------------------------
# transition matrices


def _twist(T: TransitionMatrix, n: int) -> TransitionMatrix:
    return TransitionMatrix(T.coeffs, T.low + n, T.p)


def _terms(T: TransitionMatrix, i: int, j: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) of the nonzero terms of entry (i, j)."""
    return [(T.low + l, int(c)) for l, c in enumerate(T.coeffs[i, j]) if c]


def _h0_oracle(T: TransitionMatrix, window: int = 16) -> int:
    """Sections counted directly: nullity of the negative-exponent system.

    A section is a polynomial vector b in 1/t (exponents 0..window) such
    that T b has no negative t-exponent.  For diag(t^d) this dimension is
    max(0, d + 1), and column operations do not change it.
    """
    n = T.size
    cols = []
    for j in range(n):
        for l in range(window + 1):
            col = {}
            for i in range(n):
                for e, c in _terms(T, i, j):
                    if e - l < 0:
                        col[(i, e - l)] = (col.get((i, e - l), 0) + c) % T.p
            cols.append(col)
    keys = sorted({k for col in cols for k in col})
    if not keys:
        return len(cols)
    M = np.array([[col.get(k, 0) for col in cols] for k in keys], dtype=np.int64)
    return len(cols) - matrix_rank(M, T.p)


def _random_glued(n, degs, seed, p=P):
    rng_ = random.Random(seed)
    D = transition_diagonal(list(degs), p)
    U = random_unimodular(n, p, rng_)
    V = random_unimodular(n, p, rng_, at_infinity=True)
    return transition_product(transition_product(U, D), V)


def test_birkhoff_recovers_diagonal():
    assert birkhoff_splitting(transition_diagonal([3, -1, 0], P)) == (-1, 0, 3)


def test_birkhoff_invariant_under_unimodular_twists():
    # at 2^31 - 1 a product of two reduced entries nears 2^62, so each
    # column combination must reduce its products before summing
    rng = random.Random(99)
    for p in (P, 2**31 - 1):
        for trial in range(20):
            n = rng.randrange(1, 4)
            degs = sorted(rng.randrange(-3, 4) for _ in range(n))
            T = _random_glued(n, degs, seed=trial, p=p)
            assert birkhoff_splitting(T) == tuple(degs), (degs, trial, p)


def test_birkhoff_degree_sum_matches_det_grading():
    rng = random.Random(99)
    for trial in range(10):
        n = rng.randrange(1, 4)
        degs = [rng.randrange(-3, 4) for _ in range(n)]
        T = _random_glued(n, degs, seed=100 + trial)
        d = T.det()
        assert d.size == 1 and d.coeffs.shape[2] == 1 and d.coeffs.any()
        assert sum(birkhoff_splitting(T)) == d.low


def test_birkhoff_matches_section_count_oracle():
    rng = random.Random(99)
    for trial in range(8):
        n = rng.randrange(1, 4)
        degs = [rng.randrange(-3, 4) for _ in range(n)]
        T = _random_glued(n, degs, seed=200 + trial)
        got = birkhoff_splitting(T)
        for tw in range(-4, 5):
            want = sum(max(0, d + tw + 1) for d in got)
            assert _h0_oracle(_twist(T, tw)) == want, (degs, tw)


def test_birkhoff_rejects_non_monomial_det():
    T = TransitionMatrix(np.array([[[1, 1]]]), 0, P)  # det = 1 + t
    try:
        birkhoff_splitting(T)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


@pytest.mark.parametrize("shape", [(1, 2, 1), (2, 1, 1), (2, 3, 2), (2, 2), (2, 2, 0), (0, 0, 1), (1, 1, 1, 1)])
def test_transition_matrix_rejects_every_shape_but_n_n_l(shape):
    with pytest.raises(ValueError, match="shape"):
        TransitionMatrix(np.ones(shape, dtype=np.int64), 0, P)


def test_transition_matrix_trims_its_exponent_range():
    T = TransitionMatrix(np.array([[[0, 3, P]], [[0, 0, 1]]]).reshape(1, 1, 6), -2, P)
    assert T.coeffs.tolist() == [[[3, 0, 0, 0, 1]]] and T.low == -1
    Z = TransitionMatrix(np.zeros((2, 2, 3), dtype=np.int64), 5, P)
    assert Z.coeffs.shape == (2, 2, 1) and not Z.coeffs.any() and Z.low == 0


def _at(T: TransitionMatrix, t0: int) -> list[list[int]]:
    """T(t0) over F_p, in Python ints."""
    powers = [pow(t0, T.low + l, T.p) for l in range(T.coeffs.shape[2])]
    return [
        [sum(int(c) * w for c, w in zip(T.coeffs[i, j], powers)) % T.p for j in range(T.size)]
        for i in range(T.size)
    ]


@pytest.mark.parametrize("p", [P, 2**31 - 1])
def test_mul_and_det_agree_with_evaluation(p):
    # glued matrices (monomial det) and dense random ones (general det); at
    # 2^31 - 1 an unreduced sum of two products already overflows int64
    r_ = random.Random(p)
    for trial in range(24):
        n = r_.randrange(1, 4)
        if trial % 2:
            A = _random_glued(n, [r_.randrange(-3, 4) for _ in range(n)], seed=300 + trial, p=p)
            B = _random_glued(n, [r_.randrange(-3, 4) for _ in range(n)], seed=400 + trial, p=p)
        else:
            A, B = (
                TransitionMatrix(
                    np.array([r_.randrange(p) for _ in range(n * n * 4)]).reshape(n, n, 4),
                    r_.randrange(-3, 4),
                    p,
                )
                for _ in range(2)
            )
        t0 = r_.randrange(1, p)
        a, b = _at(A, t0), _at(B, t0)
        want = [[sum(a[i][l] * b[l][j] for l in range(n)) % p for j in range(n)] for i in range(n)]
        assert _at(transition_product(A, B), t0) == want
        for T in (A, B, transition_product(A, B)):
            at = np.array(_at(T, t0), dtype=np.int64)
            assert _at(T.det(), t0) == [[int(batch_det_mod(at[None], p)[0])]]


def test_det_needs_a_prime_above_its_degree_bound():
    # diag(1 + t^3, 1 + t^3) / t: n (L - 1) = 6, det = (1 + 2 t^3 + t^6) / t^2
    coeffs = np.zeros((2, 2, 4), dtype=np.int64)
    coeffs[0, 0, [0, 3]] = coeffs[1, 1, [0, 3]] = 1
    for p in (2, 3, 5):
        with pytest.raises(PrimeTooSmallError, match="needs p > 6"):
            TransitionMatrix(coeffs, -1, p).det()
    d = TransitionMatrix(coeffs, -1, 7).det()
    assert d.coeffs.tolist() == [[[1, 0, 0, 2, 0, 0, 1]]] and d.low == -2
    # 1 + t^5: n (L - 1) = 5 is itself prime
    with pytest.raises(PrimeTooSmallError, match="needs p > 5"):
        TransitionMatrix(np.array([[[1, 0, 0, 0, 0, 1]]]), 0, 5).det()
    assert TransitionMatrix(np.array([[[1, 0, 0, 0, 0, 1]]]), 0, 7).det().coeffs.tolist() == [[[1, 0, 0, 0, 0, 1]]]
