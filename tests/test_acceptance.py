"""Headline guarantees of the package, one test per criterion.

Each test prints and records a single [PASS]/[FAIL] line; the conftest
hook replays them after the run.  Budgets that are part of the contract
are asserted inside the timing wrapper.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import numpy as np
import pytest
from conftest import record_acceptance
from oracles import (
    SurfaceDivisor,
    birkhoff_splitting,
    cokernel_rank_check,
    discriminant_check,
    h0_profile_splitting,
    random_unimodular,
    transition_diagonal,
    transition_product,
)

from hbn.curves import connectedness, smoothness
from hbn.determinantal import (
    degree_grid,
    forced_reducibility,
    phi,
    reducibility_witness,
    sample_pair,
)
from hbn.differential import (
    dominance_rank,
    dphi_matrix,
    lemma_is_check,
    lemma_main_check,
    product_rule_rank,
    selector_mask,
)
from hbn.exact.linalg import matrix_rank
from hbn.scrollar import abundance_verdict, general_cover_not_abundant
from hbn.seeds import derive_seed
from hbn.splitting import (
    HirzebruchClass,
    check_conditions,
    enumerate_strata,
    genus,
    nu,
    plane_curve_dim,
    predicted_dim,
    structure_sheaf_type,
    u,
    witness_f,
)
from hbn.sweeps import (
    WINDOW,
    desk_classes,
    iter_window_strata,
    passes,
    subsample,
    unique_strata,
)

P = 10007


@contextmanager
def criterion(n, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        record_acceptance(f"[FAIL] criterion {n}: {label} ({type(exc).__name__})")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        record_acceptance(
            f"[FAIL] criterion {n}: {label} (runtime {dt:.2f}s exceeds {budget:g}s)"
        )
        pytest.fail(f"criterion {n} over budget: {dt:.2f}s > {budget:g}s")
    record_acceptance(f"[PASS] criterion {n}: {label} ({dt:.2f}s)")


def test_criterion_01_trigonal_enumeration():
    with criterion(1, "trigonal fixed-e enumeration gives 3 strata, dims 0/1/1", budget=1.0):
        reports = enumerate_strata(HirzebruchClass(3, 3, 2), e=(-8, -4, -1))
        got = {r.f: r.dim for r in reports}
        assert got == {(-7, -4, 0): 0, (-7, -3, -1): 1, (-6, -4, -1): 1}


def test_criterion_02_seven_gonal_section_count_enumeration():
    with criterion(2, "7-gonal genus-15 degree-14 3-section types, dims 5/6/7/7", budget=1.0):
        cls = HirzebruchClass(1, 7, 0)
        assert genus(cls) == 15
        reports = enumerate_strata(cls, degree=14, sections=3)
        got = {r.e: r.dim for r in reports}
        assert got == {
            (-3, -2, -1, -1, -1, 0, 1): 5,
            (-3, -2, -1, -1, 0, 0, 0): 7,
            (-2, -2, -2, -1, -1, 0, 1): 7,
            (-2, -2, -2, -1, 0, 0, 0): 6,
        }
        for r in reports:
            assert plane_curve_dim(r.e, 15) == r.dim


def test_criterion_03_forced_reducibility_matches_conditions():
    lo, hi = WINDOW
    count = 0
    with criterion(
        3, "forced reducibility = NONE iff both stratum inequalities, exhaustive", budget=60.0
    ):
        for cls in desk_classes():
            for e, f in iter_window_strata(cls, lo, hi):
                grid = degree_grid(e, f, cls.m)
                assert (forced_reducibility(grid).verdict == "NONE") == passes(e, f, cls), (
                    cls, e, f,
                )
                count += 1
        assert count > 500_000
    record_acceptance(f"       criterion 3 checked {count} (e, f) pairs")


def test_criterion_04_dimension_bookkeeping_identity():
    lo, hi = WINDOW
    spot = None
    with criterion(4, "coefficient count = 2k^2+2k*delta+k^2*m+nu, dims agree"):
        for cls in desk_classes():
            k, m, delta = cls.k, cls.m, cls.delta
            g = genus(cls)
            for e, f in iter_window_strata(cls, lo, hi):
                grid = degree_grid(e, f, m)
                source = sum(
                    max(0, d + 1) for row in grid.a for d in row
                ) + sum(max(0, d + 1) for row in grid.b for d in row)
                nu_ef = nu(e, f, m)
                assert source == 2 * k * k + 2 * k * delta + k * k * m + nu_ef, (cls, e, f)
                # dim X - dim G - (dim S+g - g) with G the gauge group
                dim_g = 2 * k * k + u(e) + u(f) - 1
                dim_sg = 2 * k * delta + k * k * m + 1
                residual = source - dim_g - (dim_sg - g)
                assert residual == g - u(e) - u(f) + nu_ef
                if all(check_conditions(e, f, cls)):
                    assert predicted_dim(e, f, cls) == residual
                if (e, f, m) == ((-8, -4, -1), (-7, -4, 0), 3):
                    spot = source
        assert spot == 68


def test_criterion_05_dominance_certified_on_every_passing_stratum():
    lo, hi = WINDOW
    strata = [
        (cls, e, f)
        for cls in desk_classes()
        for e, f in iter_window_strata(cls, lo, hi)
        if passes(e, f, cls)
    ]
    first = total = 0
    with criterion(
        5, "dominance rank certified on every passing stratum within 5 trials", budget=600.0
    ):
        for cls, e, f in strata:
            rep = dominance_rank(e, f, cls, trials=5, p=P)
            assert rep["verdict"] == "DOMINANT", (cls, e, f, rep)
            total += 1
            if rep["trials"] == 1:
                first += 1
        assert total == len(strata)
        assert first >= 0.99 * total, (first, total)
    record_acceptance(
        f"       criterion 5 certified {total} strata, {first} on the first trial"
    )


def test_criterion_06_forced_failure_direction():
    # the violating set is ~300k strata after dedup, far too many for
    # 100 resamples each; a fixed-seed subsample of 120 stands in
    viol = unique_strata(list(desk_classes()), *WINDOW, want_passing=False)
    picks = subsample(viol, 120, "forced-failure")
    rng = random.Random(derive_seed("acceptance", 6, P))
    with criterion(
        6, "violating strata: 100/100 reducible determinants, rank never reached"
    ):
        for cls, e, f in picks:
            grid = degree_grid(e, f, cls.m)
            assert forced_reducibility(grid).verdict != "NONE"
            for _ in range(100):
                pair = sample_pair(grid, "FULL", P, rng)
                assert reducibility_witness(pair), (cls, e, f)
            rep = dominance_rank(e, f, cls, trials=5, p=P)
            assert rep["verdict"] == "NOT_ACHIEVED", (cls, e, f, rep)
            assert rep["max_rank"] < rep["target_dim"]
    record_acceptance(
        f"       criterion 6 sampled {len(picks)} of {len(viol)} violating strata"
    )


def test_criterion_07_smooth_connected_realization():
    eligible = [
        s
        for s in unique_strata(list(desk_classes()), *WINDOW, want_passing=True)
        if connectedness(s[0]) == 1
    ]
    rng = random.Random(derive_seed("acceptance", 7, P))
    picks = rng.sample(eligible, 20)
    with criterion(
        7, "20 random strata realized by certified smooth connected curves"
    ):
        for cls, e, f in picks:
            g = genus(cls)
            grid = degree_grid(e, f, cls.m)
            done = False
            for _ in range(8):
                pair = sample_pair(grid, "FULL", P, rng)
                curve = phi(pair)
                if smoothness(curve).verdict != "SMOOTH":
                    continue
                deg, expected, ok = discriminant_check(curve)
                assert ok and deg == expected == 2 * g + 2 * cls.k - 2, (cls, e, f, deg)
                assert cokernel_rank_check(pair, curve, 20, rng)
                done = True
                break
            assert done, (cls, e, f)


def test_criterion_08_differential_lemma_harness():
    rng = random.Random(derive_seed("acceptance", 8, P))
    strata = unique_strata(
        [c for c in desk_classes(k_min=3, k_max=4)], *WINDOW, want_passing=True
    )
    k2 = unique_strata(
        [c for c in desk_classes(k_min=2, k_max=2)], *WINDOW, want_passing=True
    )
    def main_holds(cls, e, f):
        # one good draw certifies the open condition; retry unlucky ones
        grid = degree_grid(e, f, cls.m)
        return any(
            lemma_main_check(sample_pair(grid, "SUT", P, rng)) for _ in range(3)
        )

    with criterion(
        8, "product rule + inductive/main lemmas on all valid k=2,3,4 strata"
    ):
        for d1 in range(7):
            for d2 in range(7):
                assert product_rule_rank((d1, d2), rng=rng, p=P)
        for cls, e, f in strata:
            assert lemma_is_check(cls.k, e, f, cls.m, rng=rng, p=P), (cls, e, f)
            assert main_holds(cls, e, f), (cls, e, f)
        t_prime = selector_mask("T_PRIME", 2)
        for cls, e, f in k2:
            assert main_holds(cls, e, f)
            # rank-2 base case has a closed-form answer: f_2 - e_1 + 1
            grid = degree_grid(e, f, cls.m)
            assert any(
                matrix_rank(np.vstack(dphi_matrix(sample_pair(grid, "SUT", P, rng), t_prime)[1:]), P)
                == f[1] - e[0] + 1
                for _ in range(3)
            ), (cls, e, f)
    record_acceptance(
        f"       criterion 8 covered {len(strata)} strata at k=3,4 and {len(k2)} at k=2"
    )


def test_criterion_09_scrollar_abundance_propositions():
    with criterion(
        9, "abundance verdicts, corner witnesses, general-cover witnesses", budget=60.0
    ):
        for k in range(2, 6):
            for delta in (1, 2, 3):
                assert abundance_verdict(HirzebruchClass(0, k, delta))["verdict"] == "ABUNDANT"
            for m in (1, 2):
                assert abundance_verdict(HirzebruchClass(m, k, 0))["verdict"] == "ABUNDANT"
        for m, delta in [(1, 1), (1, 2), (2, 1)]:
            for k in (4, 5):
                res = abundance_verdict(HirzebruchClass(m, k, delta))
                assert res["verdict"] == "NOT_ABUNDANT"
                corner = (0, m + delta, m + delta) + (2 * m + delta + 1,) * (k - 3)
                assert tuple(res["witness"]) == corner, (m, k, delta, res)
        for k in (4, 5, 6):
            for g in range(2 * (k - 1), 31):
                assert general_cover_not_abundant(k, g) is not None, (k, g)


def test_criterion_10_pushforward_oracle_consistency():
    rng = random.Random(derive_seed("acceptance", 10, P))
    smooth_samples = 0
    with criterion(
        10, "h0 profile = structure sheaf type on smooth samples; Birkhoff invariance"
    ):
        for m, delta in [(0, 2), (1, 0), (1, 1)]:
            for k in range(1, 5):
                cls = HirzebruchClass(m, k, delta)
                sst = structure_sheaf_type(cls)
                assert h0_profile_splitting(cls, SurfaceDivisor(0, 0)) == sst, cls
                f = witness_f(sst, cls)
                grid = degree_grid(sst, f, m)
                for _ in range(5):
                    done = False
                    for _ in range(8):
                        pair = sample_pair(grid, "FULL", P, rng)
                        if smoothness(phi(pair)).verdict == "SMOOTH":
                            done = True
                            smooth_samples += 1
                            break
                    assert done, cls
        bundles = [
            degs
            for r in (1, 2, 3)
            for degs in combinations_with_replacement(range(-3, 4), r)
        ]
        for degs in bundles:
            base = transition_diagonal(list(degs), P)
            for _ in range(100):
                left = random_unimodular(len(degs), P, rng)
                right = random_unimodular(len(degs), P, rng, at_infinity=True)
                glued = transition_product(transition_product(left, base), right)
                assert birkhoff_splitting(glued) == tuple(sorted(degs))
    record_acceptance(
        f"       criterion 10 certified {smooth_samples} smooth samples, "
        f"{len(bundles)} bundles x 100 twists"
    )
