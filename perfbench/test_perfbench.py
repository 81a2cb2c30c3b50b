"""Tests of the benchmark itself: inputs, checks, tracing, contract.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import generator
import run

run.use_checkout_src()
run.OUT.mkdir(exist_ok=True)

import tracing  # noqa: E402
import workloads  # noqa: E402

import hbn.curves  # noqa: E402
import hbn.exact.linalg  # noqa: E402
from hbn.splitting import HirzebruchClass  # noqa: E402
from hbn.sweeps import WINDOW, desk_classes, iter_window_strata, passes, unique_strata  # noqa: E402

WORKLOADS = generator.WORKLOADS


def _as_tuple(cls, e, f):
    return (cls.m, cls.k, cls.delta, tuple(e), tuple(f))


def test_generator_matches_hbn_sweeps():
    ours = generator.passing_strata()
    theirs = [
        _as_tuple(cls, e, f)
        for cls in desk_classes()
        for e, f in iter_window_strata(cls, *WINDOW)
        if passes(e, f, cls)
    ]
    assert len(ours) == 25_669
    assert list(ours) == theirs
    classes = [_as_tuple(*s) for s in unique_strata(list(desk_classes()), *WINDOW)]
    assert len(generator.shift_classes()) == 4_692
    assert list(generator.shift_classes()) == classes
    connected = [s for s in classes if hbn.curves.connectedness(HirzebruchClass(*s[:3])) == 1]
    assert len(connected) == 4_689
    assert list(generator.population("sample-certify")) == connected
    assert len(generator.population("lemma-sut")) == 4_564


def test_connected_rule_matches_hbn():
    for cls in desk_classes():
        assert generator.connected(cls.m, cls.k, cls.delta) == (hbn.curves.connectedness(cls) == 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_always_yields_the_same_items(workload):
    first = generator.items(workload, 5, 300)
    generator._round_slots.cache_clear()
    assert generator.items(workload, 5, 300) == first
    assert generator.item(workload, 5, 257) == first[257]
    assert generator.items(workload, 6, 300) != first
    # a complete round draws one stratum from each 1/ROUND slice of the population
    pop = generator.population(workload)
    size = generator.ROUND[workload]
    slots = sorted(pop.index(it.stratum) * size // len(pop) for it in first[:size])
    assert slots == list(range(size))


def test_checks_reject_wrong_outputs():
    it = generator.Item(index=0, stratum=(3, 3, 2, (-8, -4, -1), (-7, -4, 0)), seed=7)
    ctx = workloads.new_context(str(run.OUT / "test-check.json"))
    rep = workloads.run_dominance(it, ctx)
    assert workloads.check_dominance(it, rep, ctx)[0]
    assert not workloads.check_dominance(it, dict(rep, source_dim=rep["source_dim"] + 1), ctx)[0]
    assert not workloads.check_dominance(it, dict(rep, verdict="NOT_ACHIEVED"), ctx)[0]

    rc = workloads.run_sample(it, ctx)
    assert workloads.check_sample(it, rc, ctx)[0]
    with pytest.raises(FileNotFoundError):  # the check consumes the output file
        workloads.check_sample(it, rc, ctx)
    rc = workloads.run_sample(it, ctx)
    path = Path(ctx["out"])
    doc = json.loads(path.read_text())
    coeffs = doc["curve"]["P"][1]
    coeffs[0] = (coeffs[0] + 1) % generator.P
    path.write_text(json.dumps(doc))
    assert not workloads.check_sample(it, rc, ctx)[0]


def test_permutation_determinant_matches_hand_expansion():
    # A = [[s, 0], [0, t]], B = [[0, 1], [1, 0]]: det = s t x^2 - y^2
    pair = {"k": 2, "A": [[[1, 0], []], [[], [0, 1]]], "B": [[[], [1]], [[1], []]]}
    s, t, x, y = 3, 5, 7, 11
    assert workloads.det_at(pair, s, t, x, y) == (s * t * x * x - y * y) % generator.P


def _traced(workload, seconds):
    args = Namespace(workload=workload, seed=11, seconds=seconds, trace=1)
    return run.traced_run(args, save=False)


EXACT_COUNTS = [
    "determinantal.det_xy.calls",
    "exact.forms.BinaryForm.mul.calls",
    "exact.linalg.det_mod.calls",
    "exact.poly2.resultant_v.points",
    "exact.linalg.matrix_rank.cells",
    "differential.dominance_rank.trials",
    "cli.sample.attempts",
    "differential.lemma.draws",
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    seconds = 2 if workload == "sample-certify" else 0.5
    res1, m1, _ = _traced(workload, seconds)
    res2, m2, _ = _traced(workload, seconds)
    assert res1.failed == res2.failed == 0
    assert res1.digest.hexdigest() == res2.digest.hexdigest()
    counts = {k: v for k, (v, unit) in m1.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in m2.items() if unit == "count"}
    assert all(name in counts for name in EXACT_COUNTS)
    # self times of all spans add up to the traced item time
    total = sum(v for k, (v, _) in m1.items() if k.endswith(".self_s"))
    assert total == pytest.approx(m1["item.total_s"][0], rel=1e-9)
    assert m1["item.calls"][0] == res1.attempted


def test_missing_or_unused_target_reports_zero():
    targets = tracing.TARGETS + (("exact.linalg", "no_such_function"), ("no_such_module", "f"))
    rec = tracing.Recorder(targets)
    original = hbn.exact.linalg.matrix_rank
    ctx = workloads.new_context(str(run.OUT / "test-missing.json"))
    it = generator.item("dominance-desk", 3, 0)
    with rec.installed():
        assert hbn.exact.linalg.matrix_rank is not original
        with rec.item_span(0):
            workloads.run_dominance(it, ctx)
    assert hbn.exact.linalg.matrix_rank is original
    summary = rec.summary()
    assert rec.missing == ["exact.linalg.no_such_function", "no_such_module.f"]
    assert summary["exact.linalg.no_such_function"]["calls"] == 0
    assert summary["curves.smoothness"]["calls"] == 0
    assert summary["exact.linalg.matrix_rank"]["calls"] > 0


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(run.END_TO_END_UNITS.items())
    _, metrics, _ = _traced("lemma-sut", 0.1)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]
    assert tuple(w["name"] for w in doc["workloads"]) == generator.WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-sut", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
