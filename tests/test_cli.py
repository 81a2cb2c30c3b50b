"""End to end command line checks, run in process via main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbn.cli
from hbn.cli import main
from hbn.curves import connectedness
from hbn.determinantal import degree_grid, forced_reducibility, pair_to_json_dict, sample_pair
from hbn.differential import dominance_rank
from hbn.seeds import derive_seed
from hbn.splitting import HirzebruchClass, enumerate_strata

TRIG = ["--m", "3", "--k", "3", "--delta", "2"]


def run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_enumerate_matches_library(tmp_path):
    code, doc = run(tmp_path, ["enumerate", *TRIG, "--e", "-8,-4,-1"])
    assert code == 0
    expected = [
        r.to_json_dict()
        for r in enumerate_strata(HirzebruchClass(3, 3, 2), e=(-8, -4, -1))
    ]
    assert doc["rows"] == expected
    assert doc["class"]["genus"] == 11
    assert [tuple(r["f"]) for r in doc["rows"] if r["dim"] != "empty"] == [
        (-7, -4, 0),
        (-7, -3, -1),
        (-6, -4, -1),
    ]


def test_enumerate_empty_window_still_ok(tmp_path):
    code, doc = run(tmp_path, ["enumerate", *TRIG, "--e", "-8,-4,-1", "--window", "5,6"])
    assert code == 0
    assert doc["rows"] == []


def test_enumerate_degree_sections_query_on_a_large_class(tmp_path):
    # the walk visits only tuples of the right sum; the cube of its
    # window holds about 10^9 tuples
    argv = ["enumerate", "--m", "3", "--k", "7", "--delta", "0", "--degree", "50", "--sections", "3"]
    code, doc = run(tmp_path, argv)
    assert code == 0
    rows = doc["rows"]
    assert len(rows) == 41
    assert (rows[0]["e"], rows[0]["dim"]) == ([-7, -4, -1, -1, -1, -1, 2], 21)
    assert (rows[-1]["e"], rows[-1]["dim"]) == ([-3, -3, -3, -3, -2, 0, 1], 34)
    assert all(r["f"] == r["e"] for r in rows)


def test_enumerate_prints_a_window_only_when_it_walks_one(tmp_path):
    # degree mode walks bounds of its own: here rows reach e = 1, outside
    # the default window [-6, 0]
    argv = ["enumerate", "--m", "1", "--k", "7", "--delta", "0", "--degree", "14", "--sections", "3"]
    code, doc = run(tmp_path, argv)
    assert code == 0
    assert "window" not in doc
    assert max(max(r["e"]) for r in doc["rows"]) == 1
    code, doc = run(tmp_path, ["enumerate", "--m", "1", "--k", "7", "--delta", "0", "--e=-3,-2,-1,-1,-1,0,1"])
    assert code == 0
    assert doc["window"] == [-6, 0]


def test_sample_smooth_exit_zero(tmp_path):
    code, doc = run(
        tmp_path,
        ["sample", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0", "--seed", "1"],
    )
    assert code == 0
    cert = doc["certification"]
    assert cert["verdict"] == "SMOOTH"
    assert cert["connected_components_h0"] == 1
    assert cert["discriminant"] == {"degree": 26, "expected": 26, "ok": True}
    assert doc["provenance"]["discriminant"].startswith("degree 2g + 2k - 2, implied by SMOOTH")


def test_sample_at_p_2_31_minus_1_stays_small(tmp_path):
    # fibers are drawn lazily, so the largest int64-safe prime needs no
    # O(p) memory; the address-space cap turns a regression into a quick
    # MemoryError in the child instead of exhausting the host
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(hbn.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out.json"
    argv = ["sample", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0", "--seed", "1", "--p", str(2**31 - 1)]
    proc = subprocess.run(
        [sys.executable, "-m", "hbn.cli", *argv, "--out", str(out)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(out.read_text())["certification"]
    assert cert["verdict"] == "SMOOTH"
    assert cert["discriminant"] == {"degree": 26, "expected": 26, "ok": True}


def test_sample_triangular_pattern_is_never_smooth(tmp_path):
    # the triangular pattern kills the pure y^k coefficient, so the sampled
    # member contains the x = 0 section and certification has to give up
    code, doc = run(
        tmp_path,
        ["sample", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0",
         "--pattern", "SUT", "--seed", "1", "--retries", "2"],
    )
    assert code == 3
    assert doc["certification"]["verdict"] == "INCONCLUSIVE"
    assert doc["curve"]["P"][0] == []


def test_sample_certification_draws_nothing_from_the_sampling_stream(tmp_path):
    # every SUT attempt is singular, so the document holds the last
    # attempt's pair: the third draw of the seeded stream, untouched by
    # the three certificates in between
    e, f = (-8, -4, -1), (-7, -4, 0)
    code, doc = run(
        tmp_path,
        ["sample", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0",
         "--pattern", "SUT", "--retries", "3", "--seed", "5"],
    )
    assert code == 3
    assert doc["certification"]["attempts"] == 3
    rng = random.Random(derive_seed(5, "sample", e, f, 3, 3, 2, 10007))
    pairs = [sample_pair(degree_grid(e, f, 3), "SUT", 10007, rng) for _ in range(3)]
    assert doc["pair"] == pair_to_json_dict(pairs[-1])


def test_sample_forced_reducible_exit_two(tmp_path):
    code, doc = run(
        tmp_path,
        ["sample", *TRIG, "--e", "-8,-4,-1", "--f", "-9,-1,-1", "--seed", "1"],
    )
    assert code == 2
    assert doc["forced_reducibility"]["verdict"] != "NONE"
    assert "certification" not in doc


def test_sample_retries_exhausted_exit_three(tmp_path):
    # p = 101, seed = 35 lands on a singular member; one retry cannot recover
    code, doc = run(
        tmp_path,
        [
            "sample", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0",
            "--p", "101", "--seed", "35", "--retries", "1",
        ],
    )
    assert code == 3
    assert doc["certification"]["verdict"] == "INCONCLUSIVE"
    assert doc["certification"]["smoothness"]["verdict"] == "SINGULAR"


def test_dominance_single_stratum(tmp_path):
    code, doc = run(
        tmp_path,
        ["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0", "--seed", "0"],
    )
    assert code == 0
    (row,) = doc["rows"]
    assert row["verdict"] == "DOMINANT"
    assert row["target_dim"] == row["max_rank"] == 30
    assert row["source_dim"] == 68


def test_dominance_all_companions(tmp_path):
    code, doc = run(tmp_path, ["dominance", *TRIG, "--e", "-8,-4,-1", "--seed", "0"])
    assert code == 0
    assert sorted(tuple(r["f"]) for r in doc["rows"]) == [
        (-7, -4, 0),
        (-7, -3, -1),
        (-6, -4, -1),
    ]
    assert all(r["verdict"] == "DOMINANT" for r in doc["rows"])


def test_dominance_violating_stratum_exit_two(tmp_path):
    code, doc = run(
        tmp_path,
        ["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-9,-1,-1", "--seed", "0"],
    )
    assert code == 2
    assert doc["rows"][0]["verdict"] == "NOT_ACHIEVED"


def test_dominance_no_companions_exit_two(tmp_path):
    code, doc = run(tmp_path, ["dominance", *TRIG, "--e", "-8,-4,-1", "--window", "0,0"])
    assert code == 2
    assert doc["rows"] == []


def test_dominance_empty_sweep_keeps_its_columns(tmp_path, capsys):
    argv = ["dominance", "--m", "0", "--k", "2", "--delta", "0", "--e=0,0", "--window", "5,6"]
    assert main(argv + ["--format", "csv"]) == 2
    assert capsys.readouterr().out == "e,f,target_dim,source_dim,max_rank,trials,verdict\n"
    code, doc = run(tmp_path, argv)
    assert code == 2
    assert doc["rows"] == []
    assert doc["columns"] == ["e", "f", "target_dim", "source_dim", "max_rank", "trials", "verdict"]
    assert doc["provenance"]["rows"] == "no companion type passes the stratum conditions"


def test_forced_reducible_stratum_can_be_dominant_on_a_disconnected_class(tmp_path):
    # on F_0 every curve in 3H is three disjoint lines: the determinant map
    # is onto |3H|, so a forced factorization does not bound its rank
    cls, e = HirzebruchClass(m=0, k=3, delta=0), (-8, -2, -1)
    assert forced_reducibility(degree_grid(e, e, cls.m)).verdict == "BLOCK_FACTOR"
    assert connectedness(cls) == 3
    assert dominance_rank(e, e, cls)["verdict"] == "DOMINANT"
    argv = ["--m", "0", "--k", "3", "--delta", "0", "--e=-8,-2,-1", "--f=-8,-2,-1"]
    assert run(tmp_path, ["dominance", *argv])[0] == 0
    assert run(tmp_path, ["sample", *argv])[0] == 2


def test_dominance_delta_budget_error():
    with pytest.raises(SystemExit):
        main(["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,1"])


def test_lemma_harness_ok(tmp_path):
    code, doc = run(
        tmp_path,
        [
            "dominance", "--lemma", "is", *TRIG,
            "--e", "-8,-4,-1", "--f", "-7,-4,0", "--seed", "3",
        ],
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["selector"] == "T_CORNER"


def test_lemma_harness_inconclusive_on_violating_stratum(tmp_path):
    code, doc = run(
        tmp_path,
        [
            "dominance", "--lemma", "main", *TRIG,
            "--e", "-8,-4,-1", "--f", "-9,-1,-1", "--seed", "0",
        ],
    )
    assert code == 3
    assert doc["ok"] is False


def test_lemma_selector_mismatch_errors():
    # each lemma fixes its selector (the document's "selector" field), so
    # there is no --selector flag to contradict it
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "dominance", "--lemma", "sq", "--selector", "FULL_PRIME", *TRIG,
                "--e", "-8,-4,-1", "--f", "-7,-4,0",
            ]
        )
    assert exc.value.code == 2


def test_section5_abundance_witness(tmp_path):
    code, doc = run(tmp_path, ["section5", "--abundance", "--m", "1", "--delta", "1", "--k", "4"])
    assert code == 0
    assert doc["verdict"] == "NOT_ABUNDANT"
    assert doc["witness"] == [0, 2, 2, 4]


def test_section5_general_cover(tmp_path):
    code, doc = run(tmp_path, ["section5", "--general-cover", "--k", "4", "--g", "9"])
    assert code == 0
    assert doc["witness"] == [0, 0, 4, 4]


def test_section5_requires_exactly_one_mode():
    with pytest.raises(SystemExit):
        main(["section5", "--m", "1", "--delta", "1", "--k", "4"])
    with pytest.raises(SystemExit):
        main(["section5", "--abundance", "--oo", "--m", "1", "--delta", "1", "--k", "4", "--bound", "3"])


# sha256 of fixed-seed documents; a change to any of these bytes must be
# explained, since certificates are meant to be reproducible across changes
GOLDEN = {
    "sample_trig": (
        ["sample", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--seed", "7"],
        0, "96c29f90042ff89adb08ea7b8bca5aa09e2745d47f613d0e71c45e83b6e0e5c2",
    ),
    "sample_k2": (
        ["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=0,1", "--seed", "1"],
        0, "2097a5da930e59406a4b961f6710975254ccc3f96ec25e0b9e8ac1ccab7e1a6e",
    ),
    "sample_k4": (
        ["sample", "--m", "1", "--k", "4", "--delta", "2",
         "--e=-8,-8,-8,-7", "--f=-8,-8,-7,-6", "--seed", "2"],
        0, "3524c99760e6707e8e2a27ed31605c8917d8096e3455e7930cc2f8e144e287f5",
    ),
    "sample_singular": (
        ["sample", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0",
         "--p", "101", "--seed", "35", "--retries", "1"],
        3, "261b4983c0d446443e4a795085a1cffc004e43600bcffea412460c1bd3a0a610",
    ),
    "dominance_companions": (
        ["dominance", *TRIG, "--e=-8,-4,-1", "--seed", "0"],
        0, "4c2dd61ad0334ae66104042a3bda4ba84420258505c5ea9ae5c654325a3015e0",
    ),
    "lemma_main": (
        ["dominance", "--lemma", "main", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--seed", "0"],
        0, "9d6032163d8d7a98f55aadc4ffd93e2493a0daeb0e191cf26c596c862425075c",
    ),
    "enumerate": (
        ["enumerate", *TRIG, "--e=-8,-4,-1"],
        0, "7531d4aaf2f5d41df665ab0307db6c5faa10241aa2b6b3705ded4cdd238a07dd",
    ),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_documents_match_pinned_digests(tmp_path, name):
    argv, code, digest = GOLDEN[name]
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fixed_seed_output_is_byte_identical(tmp_path):
    argv = ["sample", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    argv = ["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0"]
    explicit = tmp_path / "e.json"
    main(argv + ["--seed", "42", "--out", str(explicit)])
    monkeypatch.setenv("HBN_SEED", "42")
    env = tmp_path / "env.json"
    main(argv + ["--out", str(env)])
    assert explicit.read_bytes() == env.read_bytes()


def test_seed_env_that_is_not_an_integer_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HBN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["dominance", *TRIG, "--e", "-8,-4,-1", "--out", os.devnull])
    assert exc.value.code == 2
    assert "HBN_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *TRIG, "--e", "-8,-4,-1", "--out", str(out)])
    assert exc.value.code == 2
    assert f"--out {out}: No such file or directory" in capsys.readouterr().err


def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(hbn.cli, "dominance_rank", lambda *a, **kw: calls.append(a))
    argv = ["dominance", *TRIG, "--e=-8,-4,-1"]
    missing = tmp_path / "missing" / "x.json"
    for out, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out}: {reason}" in capsys.readouterr().err
    assert calls == []


def test_main_runs_the_command_patched_after_the_parser_is_built(monkeypatch):
    hbn.cli._parser()  # cached before the patch, as in a traced benchmark run
    calls = []
    monkeypatch.setattr(hbn.cli, "cmd_sample", lambda args, parser: calls.append(args.e) or 0)
    assert main(["sample", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--out", os.devnull]) == 0
    assert calls == [(-8, -4, -1)]


def test_csv_and_pretty_renderers(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        ["enumerate", *TRIG, "--e", "-8,-4,-1", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("e,f,cond")
    assert main(["enumerate", *TRIG, "--e", "-8,-4,-1", "--format", "pretty"]) == 0
    shown = capsys.readouterr().out
    assert "dim" in shown and "-7 -4 0" in shown


def test_nonprime_p_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dominance", *TRIG, "--e", "-8,-4,-1", "--p", "10"])
    assert exc.value.code == 2
    # p = 2 is prime but has no quadratic nonresidue for F_p^2
    argv = ["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=0,1", "--p", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --p: must be an odd prime, got 2\n" in capsys.readouterr().err


BIG_P_ERROR = "must be at most 2^31 - 1 = 2147483647, got 2305843009213693951"


def test_prime_above_int64_bound_is_usage_error(capsys):
    # 2^61 - 1 is prime, but products of reduced entries overflow int64
    # there: matrix_rank would certify a rank-2 matrix as rank 4
    argv = ["dominance", "--m", "1", "--k", "3", "--delta", "2", "--e=-2,-1,0", "--f=-2,-1,2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", str(2**61 - 1)])
    assert exc.value.code == 2
    assert f"argument --p: {BIG_P_ERROR}\n" in capsys.readouterr().err
    assert main(argv + ["--p", str(2**31 - 1), "--out", os.devnull]) == 0


def _script(name: str, *argv: str) -> subprocess.CompletedProcess:
    root = Path(hbn.cli.__file__).resolve().parents[2]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_reproduce_examples_runs_every_worked_example():
    proc = _script("reproduce_examples.py", "json")
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("$ hbn ")[1:]
    assert len(blocks) == 7
    (sample,) = [b for b in blocks if b.startswith("sample ")]
    doc = json.loads(sample.split("\n", 1)[1])
    assert doc["certification"]["verdict"] == "SMOOTH"
    assert doc["certification"]["discriminant"] == {"degree": 26, "expected": 26, "ok": True}
    assert doc["provenance"]["discriminant"].startswith("degree 2g + 2k - 2, implied by SMOOTH")


def test_section5_report_runs_to_completion():
    proc = _script("section5_report.py", "--kmax", "4", "--gmax", "8")
    assert proc.returncode == 0, proc.stderr
    assert "general covers: splitting types too deep for their genus" in proc.stdout
    assert "imprimitive double covers against the pairwise bound" in proc.stdout


def test_dominance_sweep_certifies_a_small_box():
    proc = _script("dominance_sweep.py", "--kmax", "2", "--mmax", "1", "--dmax", "1", "--lo", "-2", "--hi", "1")
    assert proc.returncode == 0, proc.stderr
    assert "strata run       : 41" in proc.stdout
    assert "not achieved     : 0" in proc.stdout


def test_dominance_sweep_rejects_prime_above_int64_bound():
    proc = _script("dominance_sweep.py", "--p", str(2**61 - 1))
    assert proc.returncode == 2
    assert f"--p {BIG_P_ERROR}\n" in proc.stderr


def test_dominance_sweep_rejects_trials_below_one():
    # with no trial every stratum would be reported as not achieved
    proc = _script("dominance_sweep.py", "--kmax", "2", "--mmax", "0", "--dmax", "1", "--trials", "0")
    assert proc.returncode == 2
    assert "--trials must be at least 1, got 0" in proc.stderr
    assert proc.stdout == ""


def test_sample_prime_below_resultant_bound_is_usage_error(capsys, monkeypatch):
    argv = ["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=0,1"]
    # p = 3 stops at the determinant map's nodes (delta + k*m = 3)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--p 3: prime too small for the determinant map" in err
    assert "needs p > delta + k*m = 3 and p >= k = 2" in err
    # p = 5 passes it and stops at the smoothness resultants
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--p 5: prime too small for interpolation" in err
    assert "degree up to 7 needs p > 7" in err
    # p = k = 3 would pass the determinant map; smoothness refuses it
    # before the first draw
    draws = []
    monkeypatch.setattr(hbn.cli, "sample_pair", lambda *a: draws.append(a))
    argv = ["sample", "--m", "0", "--k", "3", "--delta", "1", "--e=0,0,0", "--f=0,0,1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "3", "--seed", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "smoothness needs p > k = 3" in err
    assert out == ""
    # a forced-reducible class at p = k still gets its document first
    argv = ["sample", "--m", "0", "--k", "3", "--delta", "0", "--e=-8,-2,-1", "--f=-8,-2,-1"]
    assert main(argv + ["--p", "3"]) == 2
    assert json.loads(capsys.readouterr().out)["forced_reducibility"]["verdict"] == "BLOCK_FACTOR"
    assert draws == []


def test_sample_smooth_curve_without_quadratic_points(tmp_path):
    # three conjugate sections over F_p^3: smooth, but with no F_p or
    # F_p^2 point for a pointwise cokernel check to sample
    argv = ["sample", "--m", "0", "--k", "3", "--delta", "0", "--e=-3,-3,-3", "--f=-3,-3,-3"]
    code, doc = run(tmp_path, argv + ["--seed", "2"])
    assert code == 0
    assert doc["certification"]["verdict"] == "SMOOTH"
    assert doc["certification"]["cokernel_rank_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--e=1,1", "--f=1,1", "--p", "3", "--seed", "1"],  # P_k = 0 on a draw
        ["--e=-2,-2", "--f=-2,-2", "--p", "3"],  # det identically zero on a draw
    ],
)
def test_sample_degenerate_draw_is_a_failed_attempt(tmp_path, argv):
    code, doc = run(tmp_path, ["sample", "--m", "0", "--k", "2", "--delta", "0", *argv])
    cert = doc["certification"]
    assert (code, cert["verdict"]) in ((0, "SMOOTH"), (3, "INCONCLUSIVE"))
    assert cert["attempts"] > 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=0,1", "--retries", "0"],
         "argument --retries: must be at least 1, got 0"),
        (["dominance", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--trials", "0"],
         "argument --trials: must be at least 1, got 0"),
        (["dominance", "--lemma", "is", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=0,1"],
         "--lemma is: the inductive point needs k >= 3"),
        (["section5", "--general-cover", "--k", "-1", "--g", "-2"],
         "--general-cover needs k >= 2 and g >= 0, got k = -1, g = -2"),
        (["dominance", "--m", "1", "--k", "2", "--delta", "1", "--e=1,0"],
         "argument --e: entries must be weakly increasing: (1, 0)"),
        (["enumerate", "--m", "1", "--k", "2", "--delta", "1", "--e=1,0"],
         "argument --e: entries must be weakly increasing: (1, 0)"),
        (["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=1,0", "--f=1,1"],
         "argument --e: entries must be weakly increasing: (1, 0)"),
        (["sample", "--m", "1", "--k", "2", "--delta", "1", "--e=0,0", "--f=1,0"],
         "argument --f: entries must be weakly increasing: (1, 0)"),
        (["section5", "--triple", "--d=1,0", "--e=0,0", "--f=0,0"],
         "argument --d: entries must be weakly increasing: (1, 0)"),
        (["section5", "--abundance", "--m", "1", "--delta", "1", "--k", "4", "--bound", "-1"],
         "--abundance needs --bound >= 0 (the window has e_1 = 0), got -1"),
        (["enumerate", "--m", "1", "--k", "7", "--delta", "0", "--degree", "14", "--sections", "3",
          "--window", "0,1"],
         "enumerate --degree does not read --window"),
        (["dominance", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--window", "0,1"],
         "dominance --f does not read --window"),
        (["dominance", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--lemma", "main", "--trials", "2",
          "--window", "0,1"],
         "dominance --lemma does not read --window"),
        (["dominance", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0", "--lemma", "main", "--trials", "2"],
         "dominance --lemma does not read --trials"),
        (["section5", "--oo", "--k", "3", "--bound", "3", "--m", "5", "--e=1,2", "--g", "4"],
         "section5 --oo does not read --m"),
        (["section5", "--general-cover", "--k", "4", "--g", "9", "--bound", "3", "--m", "1"],
         "section5 --general-cover does not read --m"),
        (["section5", "--triple", "--d=0,0", "--e=0,0", "--f=0,0", "--m", "2", "--bound", "1"],
         "section5 --triple does not read --m"),
        (["section5", "--ol", "--m", "1", "--k", "3", "--delta", "1", "--bound", "-1"],
         "--ol needs --bound >= 0 (the window has e_1 = 0), got -1"),
        (["section5", "--oo", "--k", "3", "--bound", "0"],
         "--oo needs --bound >= 1 (a_1 >= 1), got 0"),
        (["enumerate", "--m", "1", "--k", "3", "--delta", "0", "--degree", "5", "--sections", "-1"],
         "--sections counts global sections, so it must be >= 0, got -1"),
    ],
)  # fmt: skip
def test_vacuous_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", os.devnull])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@st.composite
def _cli_cases(draw):
    """Small classes at small primes, through enumerate (with and without
    --degree/--sections), every sample and dominance mode and every
    section5 mode.  Most cases are well formed: e has k entries and f is e
    plus delta unit steps.  The rest have a bad class, a type of the wrong
    length or an arbitrary f."""
    shape = draw(st.sampled_from(["ok"] * 6 + ["m", "k", "delta", "length"]))
    m = -1 if shape == "m" else draw(st.integers(0, 2))
    k = 0 if shape == "k" else draw(st.integers(1, 5))
    delta = -1 if shape == "delta" else draw(st.integers(0, 2))
    n = k + 1 if shape == "length" else max(k, 1)
    types = st.lists(st.integers(-4, 3), min_size=n, max_size=n)
    e = sorted(draw(types))
    f = list(e)
    for i in draw(st.lists(st.integers(0, n - 1), min_size=max(delta, 0), max_size=max(delta, 0))):
        f[i] += 1
    f = draw(st.sampled_from([sorted(f), draw(types)]))
    modes = ["sample", "companions", "dominance", "main", "sq", "is", "enumerate", "degree",
             "oo", "ol", "abundance", "general_cover", "triple"]  # fmt: skip
    mode = draw(st.sampled_from(modes))
    genus_arg = ["--g", str(draw(st.integers(-2, 12)))]
    if mode == "general_cover":
        return ["section5", "--general-cover", "--k", str(draw(st.integers(-1, 5)))] + genus_arg
    if mode == "triple":
        d = draw(st.lists(st.integers(-4, 3), min_size=len(e) - 1, max_size=len(e) + 1))
        argv = ["section5", "--triple"] + [f"--{x}=" + ",".join(map(str, t)) for x, t in zip("def", (d, e, f))]
        return argv + draw(st.sampled_from([[], genus_arg]))
    if mode == "oo":
        return ["section5", "--oo", "--k", str(k), "--bound", str(draw(st.integers(-1, 3)))]
    if mode in ("ol", "abundance"):
        argv = ["section5", "--" + mode, "--m", str(m), "--k", str(k), "--delta", str(delta)]
        return argv + draw(st.sampled_from([[], ["--bound", str(draw(st.integers(-1, 4)))]]))
    if mode == "degree":
        argv = ["enumerate", "--m", str(m), "--k", str(k), "--delta", str(delta)]
        argv += draw(st.sampled_from([[], ["--degree", str(draw(st.integers(-2, 6)))]]))
        argv += draw(st.sampled_from([[], ["--sections", str(draw(st.integers(0, 3)))]]))
        return argv + draw(st.sampled_from([[], ["--e=" + ",".join(map(str, e))]]))
    if mode in ("sq", "main", "is"):
        argv = ["dominance", "--lemma", mode]
    else:
        argv = ["dominance" if mode == "companions" else mode]
    argv += ["--m", str(m), "--k", str(k), "--delta", str(delta), "--e=" + ",".join(map(str, e))]
    if mode not in ("enumerate", "companions"):
        argv.append("--f=" + ",".join(map(str, f)))
    if mode == "sample":
        argv += ["--retries", str(draw(st.integers(1, 3)))]
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 101]))
    seed = draw(st.integers(0, 9))
    if mode == "enumerate":
        return argv
    argv += ["--p", str(p), "--seed", str(seed)]
    return argv + (["--trials", "2"] if mode in ("dominance", "companions") else [])


P_BELOW_K = ["dominance", "--lemma", "main", "--m", "0", "--k", "5", "--delta", "0",
             "--e=0,0,0,0,0", "--f=0,0,0,0,0", "--p", "3", "--seed", "0"]  # fmt: skip


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_cli_cases())
@example(P_BELOW_K)
def test_cli_gives_a_verdict_or_a_usage_error(argv):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", os.devnull])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3), argv


# (subcommand, flag) pairs the subcommand does not read, with a value the
# subcommands that do read the flag accept
DROPPED_FLAGS = [
    ("enumerate", "--p=10007"), ("enumerate", "--seed=1"), ("enumerate", "--f=-7,-4,0"),
    ("enumerate", "--trials=2"), ("enumerate", "--pattern=FULL"),
    ("sample", "--window=0,0"), ("sample", "--trials=2"),
    ("dominance", "--pattern=FULL"),
    ("section5", "--p=10007"), ("section5", "--seed=1"), ("section5", "--window=0,0"),
    ("section5", "--trials=2"), ("section5", "--pattern=FULL"),
]  # fmt: skip
DROPPED_BASE = {
    "enumerate": ["enumerate", *TRIG, "--e=-8,-4,-1"],
    "sample": ["sample", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0"],
    "dominance": ["dominance", *TRIG, "--e=-8,-4,-1", "--f=-7,-4,0"],
    "section5": ["section5", "--general-cover", "--k", "4", "--g", "9"],
}


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, command, flag):
    argv = DROPPED_BASE[command]
    hbn.cli.build_parser().parse_args(argv)  # well formed without the flag
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "--out", os.devnull])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    readme = Path(hbn.cli.__file__).resolve().parents[2] / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.read_text(), re.M)
    # the README lists each subcommand's flags but --format and --out
    table = {command: set(re.findall(r"--[a-z-]+", flags)) | {"--format", "--out"} for command, flags in rows}
    subparsers = next(a for a in hbn.cli.build_parser()._actions if a.choices)
    parsed = {
        command: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for command, sub in subparsers.choices.items()
    }
    assert table == parsed
    assert sum(map(len, parsed.values())) == 47


def test_dominance_prime_below_cofactor_bound_is_usage_error(capsys):
    argv = ["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "11"])
    assert exc.value.code == 2
    assert "needs p > delta + k*m = 11" in capsys.readouterr().err
    assert main(argv + ["--p", "13", "--out", os.devnull]) == 0
    # p >= k is the other bound: the x-nodes 0..k-1 must be distinct
    with pytest.raises(SystemExit) as exc:
        main(P_BELOW_K)
    assert exc.value.code == 2
    assert "p >= k = 5" in capsys.readouterr().err
    # p = k = 3 is enough: the node (1 : 0) stands in for x = 3 = 0 mod 3
    argv = ["dominance", "--m", "0", "--k", "3", "--delta", "1", "--e=0,0,0", "--f=0,0,1"]
    assert main(argv + ["--p", "3", "--seed", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0 0 0,0 0 1,8,24,8,5,DOMINANT"


def test_main_twice_leaks_no_parsed_state(tmp_path):
    dom = ["dominance", *TRIG, "--e", "-8,-4,-1", "--f", "-7,-4,0"]
    first = tmp_path / "first.csv"
    argv = dom + ["--p", "10009", "--trials", "2", "--format", "csv", "--seed", "4"]
    assert main(argv + ["--out", str(first)]) == 0
    assert first.read_text().startswith("e,f,target_dim,")
    code, doc = run(tmp_path, dom)
    assert code == 0
    assert doc["p"] == 10007
    assert "among 5" in doc["provenance"]["verdict"]
    code, doc = run(tmp_path, ["enumerate", *TRIG, "--e", "-8,-4,-1"])
    assert code == 0 and doc["command"] == "enumerate"
    # the cached parser parses like a fresh one, with no attribute carried over
    fresh = vars(hbn.cli.build_parser().parse_args(["enumerate", *TRIG]))
    again = vars(hbn.cli._parser().parse_args(["enumerate", *TRIG]))
    assert again == fresh and "lemma" not in again
