"""Numerics of splitting types: genus, inversion counts, stratum conditions.

The genus formula is cross-checked by adjunction on the surface, u by a
direct pair count, and the condition predicates by small worked tables.
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbn.curves import SurfaceDivisor, canonical_divisor, intersection
from hbn.splitting import (
    HirzebruchClass,
    check_conditions,
    corollary_check,
    default_window,
    enumerate_strata,
    genus,
    iter_sum_types,
    iter_types,
    nu,
    odelta_type,
    plane_curve_dim,
    predicted_dim,
    stratum_report,
    structure_sheaf_type,
    u,
    validate_type,
    witness_f,
)

classes = st.builds(
    HirzebruchClass,
    m=st.integers(0, 4),
    k=st.integers(1, 6),
    delta=st.integers(0, 4),
)

types4 = st.lists(st.integers(-6, 3), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs))
)


@given(classes)
def test_genus_matches_adjunction(cls):
    # 2g - 2 = C (C + K) on the surface, C = k H + delta F
    C = SurfaceDivisor(cls.k, cls.delta)
    K = canonical_divisor(cls.m)
    lhs = 2 * genus(cls) - 2
    assert lhs == intersection(C, SurfaceDivisor(C.a + K.a, C.b + K.b), cls.m)


def test_genus_spot_values():
    assert genus(HirzebruchClass(m=3, k=3, delta=2)) == 11
    assert genus(HirzebruchClass(m=1, k=7, delta=0)) == 15
    assert genus(HirzebruchClass(m=0, k=2, delta=5)) == 4


@given(types4)
def test_u_is_the_gap_count(e):
    want = sum(
        max(0, e[j] - e[i] - 1) for i in range(len(e)) for j in range(i + 1, len(e))
    )
    assert u(e) == want


@given(types4, st.integers(0, 5))
def test_u_and_corollary_shift_invariant(e, s):
    shifted = tuple(x + s for x in e)
    assert u(shifted) == u(e)
    cls = HirzebruchClass(m=2, k=len(e), delta=3)
    assert corollary_check(shifted, cls) == corollary_check(e, cls)


def test_validate_type_rejects_unsorted():
    with pytest.raises(ValueError):
        validate_type((0, -1))
    assert validate_type([-1, 0]) == (-1, 0)


def test_structure_sheaf_and_odelta_types():
    cls = HirzebruchClass(m=1, k=4, delta=2)
    sst = structure_sheaf_type(cls)
    assert sst == (-5, -4, -3, 0)
    # entries -(im + delta) for i = 1..k-1, plus the trivial summand
    assert sum(sst) == -sum(i * cls.m + cls.delta for i in range(1, cls.k))
    assert odelta_type(cls) == (-5, -4, -1, 0)


def test_conditions_trigonal_table():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    e = (-8, -4, -1)
    good = [(-7, -4, 0), (-7, -3, -1), (-6, -4, -1)]
    for f in good:
        assert check_conditions(e, f, cls) == (True, True, True)
    assert check_conditions(e, (-8, -2, -1), cls)[1] is False
    assert check_conditions(e, (-9, -1, -1), cls)[0] is False
    assert check_conditions(e, (-7, -4, -1), cls)[2] is False


def test_predicted_dim_trigonal_table():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    e = (-8, -4, -1)
    dims = {f: predicted_dim(e, f, cls) for f in [(-7, -4, 0), (-7, -3, -1), (-6, -4, -1)]}
    assert dims == {(-7, -4, 0): 0, (-7, -3, -1): 1, (-6, -4, -1): 1}


def test_plane_curve_dims_degree14():
    g = 15
    want = {
        (-3, -2, -1, -1, -1, 0, 1): 5,
        (-3, -2, -1, -1, 0, 0, 0): 7,
        (-2, -2, -2, -1, -1, 0, 1): 7,
        (-2, -2, -2, -1, 0, 0, 0): 6,
    }
    for e, d in want.items():
        assert plane_curve_dim(e, g) == d


@given(types4)
@settings(max_examples=60)
def test_witness_f_passes_conditions(e):
    cls = HirzebruchClass(m=2, k=len(e), delta=3)
    if not corollary_check(e, cls):
        return
    f = witness_f(e, cls)
    assert not isinstance(f, str)
    c1, c2, c3 = check_conditions(e, f, cls)
    assert c1 and c2 and c3


def test_iter_types_counts_stars_and_bars():
    for k, lo, hi in [(1, -2, 2), (2, -3, 1), (3, -4, 0), (4, -3, 2)]:
        got = list(iter_types(k, lo, hi))
        assert len(got) == comb(hi - lo + k, k)
        assert len(set(got)) == len(got)
        assert all(t == tuple(sorted(t)) and min(t) >= lo and max(t) <= hi for t in got)


def test_iter_sum_types_is_the_sum_filter():
    for total in range(-8, 3):
        via_filter = [t for t in iter_types(3, -4, 2) if sum(t) == total]
        assert list(iter_sum_types((-4,) * 3, 2, total)) == via_filter


@given(
    st.lists(st.integers(-4, 2), min_size=1, max_size=4),
    st.integers(-4, 2),
    st.integers(-16, 8),
)
def test_iter_sum_types_is_the_sum_and_floor_filter(floors, hi, total):
    k = len(floors)
    want = [
        t
        for t in iter_types(k, min(floors), hi)
        if sum(t) == total and all(x >= fl for x, fl in zip(t, floors))
    ]
    assert list(iter_sum_types(floors, hi, total)) == want


def _condition_filter(e, cls, lo, hi):
    return [
        f
        for f in iter_types(cls.k, lo, hi)
        if all(check_conditions(e, f, cls))
    ]


def test_iter_companions_matches_condition_filter():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    e = (-8, -4, -1)
    lo, hi = -10, 2
    rows = enumerate_strata(cls, e=e, window=(lo, hi))
    assert [r.f for r in rows] == _condition_filter(e, cls, lo, hi)


def test_whole_window_is_the_condition_filter_in_order():
    for cls in [HirzebruchClass(2, 3, 1), HirzebruchClass(0, 2, 3), HirzebruchClass(1, 4, 0)]:
        lo, hi = -5, 1
        want = [
            (e, f) for e in iter_types(cls.k, lo, hi) for f in _condition_filter(e, cls, lo, hi)
        ]
        assert [(r.e, r.f) for r in enumerate_strata(cls, window=(lo, hi))] == want


@pytest.mark.parametrize("m, k", [(0, 2), (1, 3), (1, 5), (2, 3), (3, 4)])
def test_degree_sections_rows_are_the_brute_force_filter(m, k):
    cls = HirzebruchClass(m=m, k=k, delta=0)
    for degree in range(0, 16):
        total = degree + 1 - genus(cls) - k
        every = [
            e
            for e in iter_types(k, total - (k - 1) * (degree // k), degree // k)
            if sum(e) == total and corollary_check(e, cls)
        ]
        rows = enumerate_strata(cls, degree=degree)
        assert [r.e for r in rows] == every
        assert all(r.f == r.e for r in rows)
        for sections in range(4):
            rows = enumerate_strata(cls, degree=degree, sections=sections)
            want = [e for e in every if sum(max(0, x + 1) for x in e) == sections]
            assert [r.e for r in rows] == want


def test_sections_without_degree_is_a_value_error():
    with pytest.raises(ValueError, match="sections needs a degree"):
        enumerate_strata(HirzebruchClass(m=1, k=3, delta=0), sections=2)


def test_default_window_saturates():
    for cls in [HirzebruchClass(3, 3, 2), HirzebruchClass(1, 4, 1), HirzebruchClass(0, 2, 3)]:
        lo, hi = default_window(cls)
        inside = {(r.e, r.f) for r in enumerate_strata(cls)}
        wider = {(r.e, r.f) for r in enumerate_strata(cls, window=(lo - 2, hi + 2))}
        # normalize: widening may add shifted copies, but nothing new up to shift
        def norm(s):
            return {(tuple(x - e[0] for x in e), tuple(x - e[0] for x in f)) for e, f in s}
        assert norm(inside) == norm(wider)


def test_enumerate_strata_fixed_e_orders_rows():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    rows = enumerate_strata(cls, e=(-8, -4, -1))
    assert [r.f for r in rows] == [(-7, -4, 0), (-7, -3, -1), (-6, -4, -1)]
    assert [r.dim for r in rows] == [0, 1, 1]


def test_stratum_report_json_round_trip():
    cls = HirzebruchClass(m=3, k=3, delta=2)
    doc = stratum_report((-8, -4, -1), (-7, -4, 0), cls).to_json_dict()
    assert doc["dim"] == 0 and doc["u_e"] == 11 and doc["nu"] == 11


@given(types4, st.integers(0, 3))
@settings(max_examples=60)
def test_nu_counts_negative_grid_entries(e, m):
    # nu is the total negative depth of the two degree grids
    k = len(e)
    f = tuple(x + 1 for x in e)
    a = [[f[i] - e[k - 1 - j] for j in range(k)] for i in range(k)]
    want = sum(max(0, -(x + 1)) for row in a for x in row)
    want += sum(max(0, -(x + m + 1)) for row in a for x in row)
    assert nu(e, f, m) == want
