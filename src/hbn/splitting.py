"""Splitting-type combinatorics for curves on Hirzebruch surfaces.

A splitting type is a weakly increasing integer tuple (e_1, ..., e_k),
the degrees of a direct sum of line bundles on the projective line.
This module holds the numerical side of the story: the codimension
statistic u, the correction term nu, the stratum conditions, dimension
formulas, and stratum enumeration.  Everything here is pure integer
arithmetic; no field or curve ever appears.
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
    intersection degree with the directrix.  genus() is the arithmetic
    genus of the class by adjunction.
    """

    m: int
    k: int
    delta: int

    def __post_init__(self):
        if self.m < 0 or self.delta < 0 or self.k < 1:
            raise ValueError(f"bad class ({self.m}, {self.k}, {self.delta})")

    def genus(self) -> int:
        return comb(self.k, 2) * self.m + (self.k - 1) * (self.delta - 1)


def genus(cls: HirzebruchClass) -> int:
    return cls.genus()


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
    expected = d - cls.genus() - k + 1
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
    return cls.genus() - u(e) - u(f) + nu(e, f, cls.m)


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
    f: Optional[SplittingType]
    cond: Optional[tuple[bool, bool, bool]]
    u_e: int
    u_f: Optional[int]
    nu: Optional[int]
    dim: Dim

    def to_json_dict(self) -> dict:
        out = {
            "e": list(self.e),
            "f": None if self.f is None else list(self.f),
            "cond": None if self.cond is None else list(self.cond),
            "u_e": self.u_e,
            "u_f": self.u_f,
            "nu": self.nu,
            "dim": self.dim,
        }
        return out


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


def iter_sum_types(k: int, lo: int, hi: int, total: int) -> Iterator[SplittingType]:
    """All weakly increasing k-tuples in [lo, hi] with a fixed entry sum.

    No stratum conditions: this is the raw companion iterator, used to
    reach the violating side of the window.
    """

    def rec(i: int, prev: int, left: int):
        if i == k:
            if left == 0:
                yield ()
            return
        slots = k - i
        for v in range(max(prev, lo), hi + 1):
            if v * slots > left:
                break
            if left - v > (slots - 1) * hi:
                continue
            for rest in rec(i + 1, v, left - v):
                yield (v,) + rest

    yield from rec(0, lo, total)


def iter_companions(e, cls: HirzebruchClass, lo: int, hi: int) -> Iterator[SplittingType]:
    """All f in the window with check_conditions(e, f) all true."""
    e = tuple(e)
    k, m = cls.k, cls.m
    floors = [max(e[i], e[i + 1] - m if i < k - 1 else e[i], lo) for i in range(k)]
    target = sum(e) + cls.delta

    def rec(i: int, prev: int, sum_so_far: int):
        if i == k:
            if sum_so_far == target:
                yield ()
            return
        for v in range(max(floors[i], prev), hi + 1):
            # minimal achievable total once f_i = v: later entries are
            # at least max(floor, v); raising v only raises this
            min_final = sum_so_far + v + sum(max(floors[j], v) for j in range(i + 1, k))
            if min_final > target:
                break
            for rest in rec(i + 1, v, sum_so_far + v):
                yield (v,) + rest

    yield from rec(0, lo, 0)


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
    """Stratum reports in deterministic lexicographic order.

    Three modes:
      * e fixed: all companion types f in the window passing the
        conditions, with predicted dimensions.
      * degree/sections filters: all types e of pushforwards of line
        bundles with the given degree and exactly the given number of
        global sections (delta must be 0, so f = e); dimensions via
        predicted_dim, which the plane-curve formula must match.
      * neither: every (e, f) pair in the window passing the conditions.
    """
    if window is None:
        window = default_window(cls)
    lo, hi = window
    out: list[StratumReport] = []
    if degree is not None or sections is not None:
        if e is not None:
            raise ValueError("degree/sections mode excludes a fixed e")
        if cls.delta != 0:
            raise ValueError("degree/sections filter assumes delta = 0 (f = e)")
        target_sum = degree + 1 - cls.genus() - cls.k
        hi_e = degree // cls.k
        lo_e = target_sum - (cls.k - 1) * hi_e
        for cand in iter_types(cls.k, lo_e, hi_e):
            if sum(cand) != target_sum:
                continue
            if sections is not None and sum(max(0, x + 1) for x in cand) != sections:
                continue
            if not corollary_check(cand, cls):
                continue
            out.append(stratum_report(cand, cand, cls))
        return out
    if e is not None:
        e = validate_type(e)
        for f in iter_companions(e, cls, lo, hi):
            out.append(stratum_report(e, f, cls))
        return sorted(out, key=lambda r: (r.e, r.f))
    for cand_e in iter_types(cls.k, lo, hi):
        for f in iter_companions(cand_e, cls, lo, hi):
            out.append(stratum_report(cand_e, f, cls))
    return sorted(out, key=lambda r: (r.e, r.f))
