"""Seeded workload inputs for the benchmark, independent of hbn.

The desk grid is every class (m, k, delta) with k <= 4, m <= 3,
delta <= 3 and every pair (e, f) of weakly increasing k-tuples with
entries in [-8, 2], sum(f) - sum(e) = delta, f_i >= e_i and
f_i >= e_{i+1} - m.  This module enumerates it and applies those
inequalities itself, without importing hbn, so a change to
`hbn.sweeps` or `hbn.splitting` cannot change what the benchmark runs.

Items are drawn by systematic sampling in rounds.  The population keeps
sweep order, which groups strata by class and so by cost.  Round r of a
workload covers ROUND consecutive item indices; the j-th slot of the
round takes the stratum at floor((j + u_r) * N / ROUND) for a seeded
offset u_r, and a seeded shuffle spreads the slots over the round's
indices.  Each item is still uniform over the population, but every
complete round has the same class mix, so runs with different seeds do
about the same work and their spread shows the program, not the draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

P = 10007
WINDOW = (-8, 2)
K_MAX, M_MAX, DELTA_MAX = 4, 3, 3

# (m, k, delta, e, f)
Stratum = tuple[int, int, int, tuple[int, ...], tuple[int, ...]]


def derive(*parts) -> int:
    """Stable 63-bit integer from a tuple of labels."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _companions(e: tuple[int, ...], m: int, total: int, hi: int):
    """Weakly increasing f in [e_1, hi] with sum total and both
    stratum inequalities, in lexicographic order."""
    k = len(e)
    floors = [max(e[i], e[i + 1] - m) for i in range(k - 1)] + [e[-1]]

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

    yield from rec(0, WINDOW[0], total)


@lru_cache(maxsize=None)
def passing_strata() -> tuple[Stratum, ...]:
    """Every passing desk stratum, in sweep order: by k, m, delta, e, f."""
    lo, hi = WINDOW
    out = []
    for k in range(1, K_MAX + 1):
        for m in range(M_MAX + 1):
            for delta in range(DELTA_MAX + 1):
                for e in combinations_with_replacement(range(lo, hi + 1), k):
                    for f in _companions(e, m, sum(e) + delta, hi):
                        out.append((m, k, delta, e, f))
    return tuple(out)


def shift_key(s: Stratum):
    """Strata that differ by a common shift of e and f share a degree grid."""
    m, _, delta, e, f = s
    return (m, delta, tuple(x - e[0] for x in e), tuple(x - e[0] for x in f))


@lru_cache(maxsize=None)
def shift_classes() -> tuple[Stratum, ...]:
    """First representative of each shift class, in sweep order."""
    seen = set()
    out = []
    for s in passing_strata():
        key = shift_key(s)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return tuple(out)


def connected(m: int, k: int, delta: int) -> bool:
    """Curves of class kH + delta*F on F_m are connected unless they are
    k >= 2 disjoint sections of F_0 = P^1 x P^1 (m = delta = 0)."""
    return not (m == 0 and delta == 0 and k >= 2)


WORKLOADS = ("dominance-desk", "sample-certify", "lemma-sut")


@lru_cache(maxsize=None)
def population(workload: str) -> tuple[Stratum, ...]:
    if workload == "dominance-desk":
        return passing_strata()
    if workload == "sample-certify":
        return tuple(s for s in shift_classes() if connected(*s[:3]))
    if workload == "lemma-sut":
        return tuple(s for s in shift_classes() if s[1] >= 3)
    raise ValueError(f"unknown workload {workload!r}")


# items per sampling round; several complete rounds fit in one run
ROUND = {"dominance-desk": 256, "sample-certify": 32, "lemma-sut": 128}


@dataclass(frozen=True)
class Item:
    index: int
    stratum: Stratum
    seed: int


@lru_cache(maxsize=64)
def _round_slots(workload: str, seed: int, r: int) -> tuple[int, ...]:
    """Population index of each item index in round r."""
    pop = population(workload)
    size = ROUND[workload]
    rng = random.Random(derive("round", workload, seed, r))
    u = rng.random()
    picks = [int((j + u) * len(pop) / size) for j in range(size)]
    rng.shuffle(picks)
    return tuple(picks)


def item(workload: str, seed: int, index: int) -> Item:
    """Item `index` of a workload; depends only on (workload, seed, index)."""
    size = ROUND[workload]
    slot = _round_slots(workload, seed, index // size)[index % size]
    return Item(
        index=index,
        stratum=population(workload)[slot],
        seed=derive("item", workload, seed, index),
    )


def items(workload: str, seed: int, n: int) -> list[Item]:
    return [item(workload, seed, i) for i in range(n)]


def warmup_items(workload: str) -> list[Item]:
    """Fixed warm-up items, independent of the seed: the first stratum
    of each k in the population, so set-up meets every matrix size."""
    out, seen = [], set()
    for s in population(workload):
        if s[1] not in seen:
            seen.add(s[1])
            out.append(Item(index=-1 - len(out), stratum=s, seed=derive("warmup", workload, s)))
    return out
