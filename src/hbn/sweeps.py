"""Window sweeps over splitting-type pairs, shared by tests and scripts.

A sweep fixes a surface class (m, k, delta) and a window [lo, hi] and
walks every pair (e, f) of weakly increasing k-tuples with entries in
the window and sum(f) - sum(e) = delta.  The degree grid attached to a
pair depends only on entrywise differences, so pairs related by a common
integer shift carry identical grids; `grid_key` collapses those orbits
and the `unique_*` collectors keep the first representative seen.
"""

from __future__ import annotations

import random
from typing import Iterator

from hbn.seeds import derive_seed
from hbn.splitting import (
    HirzebruchClass,
    SplittingType,
    check_conditions,
    companion_floors,
    iter_sum_types,
    iter_types,
)

WINDOW = (-8, 2)

# the desk grid: every class small enough to sweep exhaustively
DESK_K_MAX = 4
DESK_M_MAX = 3
DESK_DELTA_MAX = 3

Stratum = tuple[HirzebruchClass, SplittingType, SplittingType]


def desk_classes(
    k_min: int = 1,
    k_max: int = DESK_K_MAX,
    m_max: int = DESK_M_MAX,
    delta_max: int = DESK_DELTA_MAX,
) -> Iterator[HirzebruchClass]:
    for k in range(k_min, k_max + 1):
        for m in range(m_max + 1):
            for delta in range(delta_max + 1):
                yield HirzebruchClass(m=m, k=k, delta=delta)


def iter_window_strata(
    cls: HirzebruchClass, lo: int = WINDOW[0], hi: int = WINDOW[1]
) -> Iterator[tuple[SplittingType, SplittingType]]:
    """Every (e, f) in the window with the degree condition built in."""
    for e in iter_types(cls.k, lo, hi):
        for f in iter_sum_types((lo,) * cls.k, hi, sum(e) + cls.delta):
            yield e, f


def passes(e: SplittingType, f: SplittingType, cls: HirzebruchClass) -> bool:
    c1, c2, _ = check_conditions(e, f, cls)
    return c1 and c2


def grid_key(cls: HirzebruchClass, e: SplittingType, f: SplittingType):
    """Shift-class key: two strata with equal keys have equal degree grids."""
    return (
        cls.m,
        cls.delta,
        tuple(x - e[0] for x in e),
        tuple(x - e[0] for x in f),
    )


def unique_strata(
    classes: Iterator[HirzebruchClass],
    lo: int = WINDOW[0],
    hi: int = WINDOW[1],
    want_passing: bool = True,
) -> list[Stratum]:
    """First representative of each shift class, in sweep order.

    Passing strata come from the walk floored by `companion_floors`,
    which yields exactly the passing f of the window walk, in its order.
    """
    seen: set = set()
    out: list[Stratum] = []
    for cls in classes:
        for e in iter_types(cls.k, lo, hi):
            floors = companion_floors(e, cls.m, lo) if want_passing else (lo,) * cls.k
            for f in iter_sum_types(floors, hi, sum(e) + cls.delta):
                if not want_passing and passes(e, f, cls):
                    continue
                key = grid_key(cls, e, f)
                if key in seen:
                    continue
                seen.add(key)
                out.append((cls, e, f))
    return out


def subsample(items: list, n: int, label: str) -> list:
    """Deterministic size-n sample; the label pins the shuffle."""
    if len(items) <= n:
        return list(items)
    rng = random.Random(derive_seed("subsample", label, len(items), n))
    return rng.sample(items, n)
