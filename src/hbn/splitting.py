"""Splitting-type combinatorics for curves on Hirzebruch surfaces.

A splitting type is a weakly increasing integer tuple (e_1, ..., e_k),
the degrees of a direct sum of line bundles on the projective line.
This module holds the numerical side of the story: the codimension
statistic u, the correction term nu, the stratum conditions, dimension
formulas, and stratum enumeration.  Everything here is pure integer
arithmetic; no field or curve ever appears.

Every enumeration runs on one walk, iter_sum_types: weakly increasing
tuples with per-entry floors, a common ceiling and a fixed sum, yielded
in lexicographic order.  enumerate_strata returns its rows in the
walk's order, with no sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Optional, Union

SplittingType = tuple[int, ...]
EMPTY = "empty"

Dim = Union[int, str]  # an integer dimension or the literal "empty"


def validate_type(e) -> SplittingType:
    e = tuple(int(x) for x in e)
    if not e:
        raise ValueError("splitting type must be nonempty")
    if any(e[i] > e[i + 1] for i in range(len(e) - 1)):
        raise ValueError(f"entries must be weakly increasing: {e}")
    return e


@dataclass(frozen=True)
class HirzebruchClass:
    """Surface index m and curve class k*H + delta*F on F_m.

    H is the section class with H^2 = m, F the fiber class; delta is the
    intersection degree with the directrix.
    """

    m: int
    k: int
    delta: int

    def __post_init__(self):
        if self.m < 0 or self.delta < 0 or self.k < 1:
            raise ValueError(f"bad class ({self.m}, {self.k}, {self.delta})")


def genus(cls: HirzebruchClass) -> int:
    """Arithmetic genus of the class, by adjunction."""
    return comb(cls.k, 2) * cls.m + (cls.k - 1) * (cls.delta - 1)


def u(e) -> int:
    """Expected codimension statistic: sum over pairs of max(0, e_i - e_j - 1)."""
    e = tuple(e)
    return sum(max(0, a - b - 1) for a in e for b in e)


def nu(e, f, m: int) -> int:
    """Correction term of the dimension formula.

    Sums, over all pairs (i, j), the failures of nonnegativity of the
    twists f_j - e_i and f_j - e_i + m (each counted as h^1 of a line
    bundle on P^1 of that degree).
    """
    e, f = tuple(e), tuple(f)
    if len(e) != len(f):
        raise ValueError("types must have equal length")
    total = 0
    for ei in e:
        for fj in f:
            c = fj - ei
            total += max(0, -c - 1) + max(0, -(c + m) - 1)
    return total


def structure_sheaf_type(cls: HirzebruchClass) -> SplittingType:
    """Type of the pushforward of the structure sheaf: (-(k-1)m-d, ..., -m-d, 0)."""
    m, k, d = cls.m, cls.k, cls.delta
    return tuple(-(k - i) * m - d for i in range(1, k)) + (0,)


def odelta_type(cls: HirzebruchClass) -> SplittingType:
    """Type of the pushforward of the directrix-intersection bundle.

    Head entries -(k-i)m - delta for i <= k-2, then (-m, 0).  The total
    degree must equal delta - g - k + 1; a mismatch means the formula
    was applied outside its range and raises.
    """
    m, k, d = cls.m, cls.k, cls.delta
    if k < 2:
        raise ValueError("need k >= 2")
    out = tuple(-(k - i) * m - d for i in range(1, k - 1)) + (-m, 0)
    expected = d - genus(cls) - k + 1
    if sum(out) != expected:
        raise ArithmeticError(
            f"degree check failed: sum {sum(out)} != {expected} for {cls}"
        )
    return out


def check_conditions(e, f, cls: HirzebruchClass) -> tuple[bool, bool, bool]:
    """The three stratum conditions.

    (1) f_i >= e_i for all i;
    (2) f_i >= e_{i+1} - m for i < k;
    (3) sum(f) - sum(e) = delta.
    """
    e, f = tuple(e), tuple(f)
    k = cls.k
    if len(e) != k or len(f) != k:
        raise ValueError("types must have length k")
    cond1 = all(f[i] >= e[i] for i in range(k))
    cond2 = all(f[i] >= e[i + 1] - cls.m for i in range(k - 1))
    cond3 = sum(f) - sum(e) == cls.delta
    return cond1, cond2, cond3


def predicted_dim(e, f, cls: HirzebruchClass) -> Dim:
    """g - u(e) - u(f) + nu(e, f, m) when all conditions hold, else "empty"."""
    if not all(check_conditions(e, f, cls)):
        return EMPTY
    return genus(cls) - u(e) - u(f) + nu(e, f, cls.m)


def plane_curve_dim(e, g: int) -> Dim:
    """Stratum dimension on a smooth plane curve (m=1, delta=0 case).

    Empty when consecutive entries gap by 2 or more; otherwise g minus
    the number of ordered pairs with e_i - e_j >= 2.
    """
    e = tuple(e)
    if any(e[i + 1] - e[i] >= 2 for i in range(len(e) - 1)):
        return EMPTY
    return g - sum(1 for a in e for b in e if a - b >= 2)


def corollary_check(e, cls: HirzebruchClass) -> bool:
    """Non-emptiness test: sum of gap excesses over m is at most delta."""
    e = tuple(e)
    return sum(max(0, e[i + 1] - e[i] - cls.m) for i in range(len(e) - 1)) <= cls.delta


def witness_f(e, cls: HirzebruchClass) -> Union[SplittingType, str]:
    """A companion type f certifying non-emptiness, or "empty".

    f_i = e_i + max(0, e_{i+1} - e_i - m) for i < k; the last entry
    absorbs the leftover degree.  Output re-sorted and re-verified.
    """
    e = validate_type(e)
    if not corollary_check(e, cls):
        return EMPTY
    k, m = cls.k, cls.m
    f = [e[i] + max(0, e[i + 1] - e[i] - m) for i in range(k - 1)]
    used = sum(f) - sum(e[:-1])
    f.append(e[-1] + cls.delta - used)
    f = tuple(sorted(f))
    assert all(check_conditions(e, f, cls)), (e, f, cls)
    return f


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumReport:
    """Record for one (e, f) stratum: conditions, statistics, dimension."""

    e: SplittingType
    f: SplittingType
    cond: tuple[bool, bool, bool]
    u_e: int
    u_f: int
    nu: int
    dim: Dim

    def to_json_dict(self) -> dict:
        return {
            "e": list(self.e),
            "f": list(self.f),
            "cond": list(self.cond),
            "u_e": self.u_e,
            "u_f": self.u_f,
            "nu": self.nu,
            "dim": self.dim,
        }


def default_window(cls: HirzebruchClass) -> tuple[int, int]:
    """Entry bounds covering every stratum of bounded-degree bundles:
    the structure-sheaf minimum shifted down by delta, up to delta."""
    lo = -(cls.k - 1) * cls.m - 2 * cls.delta
    return lo, cls.delta


def iter_types(k: int, lo: int, hi: int) -> Iterator[SplittingType]:
    """All weakly increasing k-tuples with entries in [lo, hi]."""
    if hi < lo:
        return
    yield from combinations_with_replacement(range(lo, hi + 1), k)


def iter_sum_types(floors, hi: int, total: int) -> Iterator[SplittingType]:
    """Weakly increasing tuples t with floors[i] <= t_i <= hi and sum(t) =
    total, in lexicographic order."""
    k = len(floors)

    def rec(i: int, prev: int, left: int):
        if i == k:
            if left == 0:
                yield ()
            return
        slots = k - i
        for v in range(max(prev, floors[i]), hi + 1):
            if v * slots > left:
                break
            if left - v > (slots - 1) * hi:
                continue
            for rest in rec(i + 1, v, left - v):
                yield (v,) + rest

    yield from rec(0, min(floors, default=0), total)


def stratum_report(e, f, cls: HirzebruchClass) -> StratumReport:
    cond = check_conditions(e, f, cls)
    return StratumReport(
        e=tuple(e),
        f=tuple(f),
        cond=cond,
        u_e=u(e),
        u_f=u(f),
        nu=nu(e, f, cls.m),
        dim=predicted_dim(e, f, cls),
    )


def enumerate_strata(
    cls: HirzebruchClass,
    window: Optional[tuple[int, int]] = None,
    e: Optional[SplittingType] = None,
    degree: Optional[int] = None,
    sections: Optional[int] = None,
) -> list[StratumReport]:
    """Stratum reports, in the order iter_sum_types walks them.

    Three modes:
      * e fixed: all companion types f in the window passing the
        conditions, with predicted dimensions.
      * degree (and optionally sections): all types e of pushforwards of
        line bundles with the given degree and, if given, exactly that
        many global sections (delta must be 0, so f = e); dimensions via
        predicted_dim, which the plane-curve formula must match.  The
        window does not apply.
      * neither: every (e, f) pair in the window passing the conditions,
        by e and then f in lexicographic order.
    """
    if sections is not None and degree is None:
        raise ValueError("sections needs a degree")
    out: list[StratumReport] = []
    if degree is not None:
        if e is not None:
            raise ValueError("degree/sections mode excludes a fixed e")
        if cls.delta != 0:
            raise ValueError("degree/sections filter assumes delta = 0 (f = e)")
        target_sum = degree + 1 - genus(cls) - cls.k
        hi_e = degree // cls.k
        lo_e = target_sum - (cls.k - 1) * hi_e
        for cand in iter_sum_types((lo_e,) * cls.k, hi_e, target_sum):
            if sections is not None and sum(max(0, x + 1) for x in cand) != sections:
                continue
            if corollary_check(cand, cls):
                out.append(stratum_report(cand, cand, cls))
        return out
    lo, hi = window or default_window(cls)
    es = [validate_type(e)] if e is not None else iter_types(cls.k, lo, hi)
    for e in es:
        # f_i >= e_i and f_i >= e_(i+1) - m; for the last entry both say f_k >= e_k
        floors = tuple(max(a, b - cls.m, lo) for a, b in zip(e, e[1:] + e[-1:]))
        for f in iter_sum_types(floors, hi, sum(e) + cls.delta):
            out.append(stratum_report(e, f, cls))
    return out
