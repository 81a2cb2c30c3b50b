"""The three benchmark workloads: one program call per item, and an
output check that uses none of hbn's own arithmetic.

Each workload maps an Item to (run, check): `run` is the timed program
call through a public entry point, `check` returns (ok, record) where
record is a JSON-able summary of the result that feeds the run digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import permutations
from pathlib import Path

from generator import P, Item

# entry points are looked up on their modules at call time, so the
# tracer's wrappers see the benchmark's own calls too
import hbn.cli
import hbn.determinantal as determinantal
import hbn.differential as differential
from hbn.splitting import HirzebruchClass

# criterion-8 retry counts: one good draw certifies an open condition.
# lemma_sq_check states an open condition too and gets the same count;
# a single draw misses it on about 1 in 2,000 strata.
LEMMA_TRIES = 3
DOMINANCE_TRIALS = 5


def genus(m: int, k: int, delta: int) -> int:
    """Arithmetic genus of kH + delta*F on F_m by adjunction."""
    return k * (k - 1) // 2 * m + (k - 1) * (delta - 1)


def nu(e, f, m: int) -> int:
    """h^1 count of the negative twists f_j - e_i and f_j - e_i + m."""
    return sum(
        max(0, e_i - f_j - 1) + max(0, e_i - f_j - m - 1) for e_i in e for f_j in f
    )


# ---------------------------------------------------------------------------
# dominance-desk


def run_dominance(item: Item, ctx: dict):
    m, k, delta, e, f = item.stratum
    return differential.dominance_rank(
        e,
        f,
        HirzebruchClass(m=m, k=k, delta=delta),
        trials=DOMINANCE_TRIALS,
        rng=random.Random(item.seed),
        p=P,
    )


def check_dominance(item: Item, rep: dict, ctx: dict):
    m, k, delta, e, f = item.stratum
    target = sum(delta + (k - i) * m + 1 for i in range(k + 1))
    source = 2 * k * k + 2 * k * delta + k * k * m + nu(e, f, m)
    ok = (
        rep["verdict"] == "DOMINANT"
        and rep["target_dim"] == target
        and rep["source_dim"] == source
        and rep["max_rank"] == target
    )
    ctx["trials"] += rep["trials"]
    ctx["first_trial"] += rep["trials"] == 1
    return ok, [rep["verdict"], rep["max_rank"], rep["trials"]]


# ---------------------------------------------------------------------------
# sample-certify


def sample_argv(item: Item, out: str) -> list[str]:
    m, k, delta, e, f = item.stratum
    return [
        "sample",
        "--m", str(m), "--k", str(k), "--delta", str(delta),
        "--e=" + ",".join(map(str, e)),
        "--f=" + ",".join(map(str, f)),
        "--seed", str(item.seed),
        "--out", out,
    ]  # fmt: skip


def run_sample(item: Item, ctx: dict):
    return hbn.cli.main(sample_argv(item, ctx["out"]))


def _form_value(coeffs: list[int], s: int, t: int) -> int:
    """sum c_i s^(d-i) t^i with d = len(coeffs) - 1; [] is the zero form."""
    d = len(coeffs) - 1
    return sum(c * pow(s, d - i, P) * pow(t, i, P) for i, c in enumerate(coeffs)) % P


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_at(doc_pair: dict, s: int, t: int, x: int, y: int) -> int:
    """det(A(s,t) x + B(s,t) y) mod p by permutation expansion."""
    k = doc_pair["k"]
    mat = [
        [
            (_form_value(doc_pair["A"][i][j], s, t) * x + _form_value(doc_pair["B"][i][j], s, t) * y)
            % P
            for j in range(k)
        ]
        for i in range(k)
    ]
    total = 0
    for perm in permutations(range(k)):
        term = _perm_sign(perm)
        for i in range(k):
            term = term * mat[i][perm[i]] % P
        total += term
    return total % P


def curve_at(doc_curve: dict, s: int, t: int, x: int, y: int) -> int:
    """sum P_i(s,t) x^i y^(k-i) mod p."""
    k = doc_curve["k"]
    return (
        sum(
            _form_value(coeffs, s, t) * pow(x, i, P) * pow(y, k - i, P)
            for i, coeffs in enumerate(doc_curve["P"])
        )
        % P
    )


def check_sample(item: Item, rc: int, ctx: dict):
    m, k, delta, e, f = item.stratum
    out = Path(ctx["out"])
    raw = out.read_bytes()
    out.unlink()  # a later item that writes nothing must not pass on this file
    doc = json.loads(raw)
    cert = doc["certification"]
    curve, pair = doc["curve"], doc["pair"]
    ok = (
        rc == 0
        and cert["verdict"] == "SMOOTH"
        and cert["smoothness"]["verdict"] == "SMOOTH"
        and cert["discriminant"]["degree"] == 2 * genus(m, k, delta) + 2 * k - 2
        and (curve["m"], curve["k"], curve["delta"], curve["p"]) == (m, k, delta, P)
        and (pair["m"], pair["k"], pair["delta"], pair["p"]) == (m, k, delta, P)
    )
    rng = random.Random(item.seed)
    for _ in range(3):
        pt = [rng.randrange(P) for _ in range(4)]
        ok = ok and det_at(pair, *pt) == curve_at(curve, *pt)
    ctx["attempts"] += cert["attempts"]
    ctx["first_attempt"] += cert["attempts"] == 1
    return ok, [rc, hashlib.sha256(raw).hexdigest()[:16]]


# ---------------------------------------------------------------------------
# lemma-sut


def run_lemma(item: Item, ctx: dict):
    m, k, delta, e, f = item.stratum
    rng = random.Random(item.seed)
    is_ok = differential.lemma_is_check(k, e, f, m, rng=rng, p=P, tries=LEMMA_TRIES)
    grid = determinantal.degree_grid(e, f, m)
    outcomes = []
    for check in ("lemma_main_check", "lemma_sq_check"):
        draws = 0
        ok = False
        while not ok and draws < LEMMA_TRIES:
            draws += 1
            ok = getattr(differential, check)(determinantal.sample_pair(grid, "SUT", P, rng))
        outcomes.append((ok, draws))
    return is_ok, outcomes


def check_lemma(item: Item, result, ctx: dict):
    is_ok, ((main_ok, main_draws), (sq_ok, sq_draws)) = result
    ctx["sut_draws"] += main_draws + sq_draws
    ctx["lemma_ok"] += bool(is_ok) + main_ok + sq_ok
    return bool(is_ok and main_ok and sq_ok), [is_ok, main_ok, main_draws, sq_ok, sq_draws]


WORKLOADS = {
    "dominance-desk": (run_dominance, check_dominance),
    "sample-certify": (run_sample, check_sample),
    "lemma-sut": (run_lemma, check_lemma),
}


def new_context(out: str) -> dict:
    """Per-run state the checks accumulate (outcome counts) plus the
    scratch path `hbn sample --out` writes to."""
    return {
        "out": out,
        "trials": 0,
        "first_trial": 0,
        "attempts": 0,
        "first_attempt": 0,
        "sut_draws": 0,
        "lemma_ok": 0,
    }
