"""Command line driver: reproducible experiments with JSON/CSV output.

Four subcommands cover the lab surface:

  enumerate   stratum tables for a class, an e-type, or a (degree, sections) query
  sample      sample a matrix pair on a stratum and certify the curve it cuts
  dominance   exact rank certification of the determinant map, plus lemma harnesses
  section5    scrollar bound reports: triple constraint, polytopes, abundance

Determinism contract: fixed (arguments, seed) produce byte-identical
output.  JSON is dumped with sorted keys and no timestamps; when --seed is
absent the HBN_SEED environment variable is used (by the subcommands that
take --seed), and failing that a seed derived from the arguments
themselves, so plain reruns also reproduce.  Each subcommand takes only
the flags it reads.

Exit codes: 0 success, 2 empty or forced-reducible stratum or a usage
error, 3 certification inconclusive (sampling retries exhausted, rank
target not reached, or a lemma harness returning False).  A
forced-reducible grid can still be DOMINANT, so dominance exits 0 where
sample exits 2; among the desk classes this happens only where
m = delta = 0, whose curves are k disjoint lines.  Usage errors
include a flag the subcommand does not read, or that its mode does not
read (UNREAD: --window with enumerate --degree, dominance --f or
dominance --lemma, --trials with --lemma, and the section5 flags a mode
ignores); an --e, --f or --d that is not weakly increasing; a --p that
is not an odd prime, is above 2^31 - 1, or is below a degree bound the
computation needs; --trials or --retries below 1; --lemma is on a grid
without the inductive point; --general-cover with k < 2 or g < 0; a
bound that leaves the window empty (--abundance or --ol with --bound
below 0, --oo with --bound below 1, --sections below 0); an --out path
whose directory is missing or not writable (refused before any work);
and an HBN_SEED that is not an integer.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import random
import re
import sys
from typing import Optional

from hbn.curves import check_smoothness_prime, connectedness, smoothness
from hbn.determinantal import (
    PATTERNS,
    DegenerateCurveError,
    curve_to_json_dict,
    degree_grid,
    forced_reducibility,
    is_point_obstruction,
    pair_to_json_dict,
    phi,
    sample_pair,
)
from hbn.differential import (
    LEMMA_SELECTORS,
    dominance_rank,
    lemma_is_check,
    lemma_main_check,
    lemma_sq_check,
)
from hbn.exact.field import DEFAULT_PRIME, PrimeTooSmallError, check_prime
from hbn.scrollar import (
    abundance_verdict,
    general_bound_check,
    general_cover_not_abundant,
    oo_polytope,
    ol_polytope,
    scrollar_from_class,
)
from hbn.seeds import derive_seed
from hbn.splitting import (
    HirzebruchClass,
    default_window,
    enumerate_strata,
    genus,
    stratum_report,
    validate_type,
)

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_INCONCLUSIVE = 3

# SMOOTH already proves the cokernel rank, so no point is sampled for it
COKERNEL_PROVENANCE = (
    "rank k-1 at every curve point, implied by SMOOTH: by Jacobi's formula "
    "d det M = tr(adj M dM) for M = Ax + By, and adj M = 0 where rank M <= k-2, "
    "so such a point would be singular"
)
# nor is the discriminant computed: SMOOTH with P_k != 0 fixes its degree
DISCRIMINANT_PROVENANCE = (
    "degree 2g + 2k - 2, implied by SMOOTH: the discriminant of the fiber "
    "polynomial is a form of that degree, nonzero because a smooth curve is "
    "reduced and p > k"
)

# flags a mode of a subcommand does not read; giving one is a usage error
UNREAD = {
    "enumerate --degree": "window",
    "dominance --f": "window",
    "dominance --lemma": "window trials",
    "section5 --abundance": "e f d g",
    "section5 --oo": "m delta e f d g",
    "section5 --ol": "e f d g",
    "section5 --general-cover": "m delta e f d bound",
    "section5 --triple": "m k delta bound",
}


def _rng(args, *parts) -> random.Random:
    if args.seed is not None:
        return random.Random(derive_seed(args.seed, *parts))
    return random.Random(derive_seed(*parts))


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_type(text: str) -> tuple[int, ...]:
    try:
        return validate_type(_parse_tuple(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _prime(text: str) -> int:
    value = _int(text)
    try:
        check_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _parse_window(text: str) -> tuple[int, int]:
    parts = _parse_tuple(text)
    if len(parts) != 2 or parts[0] > parts[1]:
        raise argparse.ArgumentTypeError(f"window must be lo,hi with lo <= hi, got {text!r}")
    return parts


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(doc)
    return _render_pretty(doc)


def _render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = doc.get("rows")
    if rows is not None:
        columns = doc.get("columns") or sorted({k for r in rows for k in r})
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_csv_cell(r.get(c)) for c in columns])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(doc):
            if key in ("provenance", "command"):
                continue
            writer.writerow([key, _csv_cell(doc[key])])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def _render_pretty(doc: dict) -> str:
    lines = [f"== {doc.get('command', 'report')} =="]
    rows = doc.get("rows")
    if rows is not None:
        columns = doc.get("columns") or sorted({k for r in rows for k in r})
        table = [[str(_csv_cell(r.get(c))) for c in columns] for r in rows]
        widths = [
            max(len(columns[j]), max((len(t[j]) for t in table), default=0))
            for j in range(len(columns))
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for t in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(t, widths)))
        lines.append(f"({len(rows)} rows)")
    for key in sorted(doc):
        if key in ("rows", "columns", "command", "provenance"):
            continue
        lines.append(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    for key, origin in sorted(doc.get("provenance", {}).items()):
        lines.append(f"# {key}: {origin}")
    return "\n".join(lines) + "\n"


def emit(doc: dict, args, parser) -> None:
    text = render(doc, args.format)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")


def _check_out(out: str, parser) -> None:
    """Refuse an --out that cannot be written, before any work is done."""
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    parser.error(f"--out {out}: {os.strerror(code)}")


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name, None) is None:
            parser.error(f"--{name} is required for this command")


def _refuse_unread(args, parser, mode: str) -> None:
    """A flag in argv that the mode does not read (UNREAD) is a usage error."""
    for name in UNREAD[mode].split():
        if "--" + name in args.given:
            parser.error(f"{mode} does not read --{name}")


def _min_bound(args, parser, floor: int, why: str) -> None:
    """A section5 --bound below floor leaves the window empty."""
    if args.bound is not None and args.bound < floor:
        mode = args.mode.replace("_", "-")
        parser.error(f"--{mode} needs --bound >= {floor} ({why}), got {args.bound}")


def _class(args, parser) -> HirzebruchClass:
    _require(args, parser, "m", "k", "delta")
    try:
        return HirzebruchClass(m=args.m, k=args.k, delta=args.delta)
    except ValueError as exc:
        parser.error(f"{exc}: needs m >= 0, k >= 1 and delta >= 0")


def _cover_class(args, parser):
    cls = _class(args, parser)
    try:
        return cls, scrollar_from_class(cls)
    except ValueError as exc:
        parser.error(f"no cover invariants for this class: {exc}")


def _check_types(args, cls: HirzebruchClass, parser) -> None:
    """--e and --f, where given, have k entries and spend delta."""
    e, f = args.e, getattr(args, "f", None)  # enumerate takes no --f
    for name, given in (("e", e), ("f", f)):
        if given is not None and len(given) != cls.k:
            parser.error(f"--{name} must have k = {cls.k} entries, got {len(given)}")
    if e is not None and f is not None and sum(f) - sum(e) != cls.delta:
        parser.error("sum(f) - sum(e) must equal delta")


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args, parser) -> int:
    cls = _class(args, parser)
    _check_types(args, cls, parser)
    if (args.degree, args.sections) != (None, None) and (args.degree is None or cls.delta or args.e):
        parser.error("--degree/--sections need --degree, delta = 0 and no --e")
    if args.degree is not None:
        _refuse_unread(args, parser, "enumerate --degree")
    if args.sections is not None and args.sections < 0:
        parser.error(f"--sections counts global sections, so it must be >= 0, got {args.sections}")
    reports = enumerate_strata(
        cls,
        window=args.window,
        e=args.e,
        degree=args.degree,
        sections=args.sections,
    )
    doc = {
        "command": "enumerate",
        "class": {"m": cls.m, "k": cls.k, "delta": cls.delta, "genus": genus(cls)},
        "columns": ["e", "f", "cond", "u_e", "u_f", "nu", "dim"],
        "rows": [r.to_json_dict() for r in reports],
        "provenance": {
            "cond": "check_conditions: f_i >= e_i, f_i >= e_{i+1} - m, sum(f) - sum(e) = delta",
            "dim": "predicted_dim: sum of expected ranks minus u(e) + u(f) + nu(e, f, m)",
            "u_e": "u: count of strict inversions needed to sort against the dual order",
            "nu": "nu: matrix entry degrees below zero on the (e, f) grid",
        },
    }
    if args.degree is None:  # degree mode walks bounds of its own
        doc["window"] = list(args.window or default_window(cls))
    emit(doc, args, parser)
    return EXIT_OK


def cmd_sample(args, parser) -> int:
    _require(args, parser, "e", "f")
    cls = _class(args, parser)
    _check_types(args, cls, parser)
    grid = degree_grid(args.e, args.f, cls.m)
    verdict = forced_reducibility(grid)
    report = stratum_report(args.e, args.f, cls).to_json_dict()
    if verdict.verdict != "NONE":
        doc = {
            "command": "sample",
            "stratum": report,
            "forced_reducibility": {
                "verdict": verdict.verdict,
                "divisible_y": verdict.divisible_y,
                "block": verdict.block,
            },
            "provenance": {
                "forced_reducibility": "degree grid inspection: negative anti-diagonal entry"
            },
        }
        emit(doc, args, parser)
        return EXIT_EMPTY

    check_smoothness_prime(args.p, cls.k)  # before any draw
    rng = _rng(args, "sample", args.e, args.f, cls.m, cls.k, cls.delta, args.p)
    pair = curve = cert = None
    success = False
    attempts = 0
    # a degenerate draw (det identically zero, or P_k = 0 so that the
    # discriminant is undefined) is a failed attempt like a singular one
    for attempts in range(1, args.retries + 1):
        pair = sample_pair(grid, args.pattern, args.p, rng)
        try:
            curve = phi(pair)
        except DegenerateCurveError:
            curve = cert = None
            continue
        cert = smoothness(curve)
        success = cert.verdict == "SMOOTH" and any(curve.P[cls.k])
        if success:
            break
    disc_degree = 2 * genus(cls) + 2 * cls.k - 2 if success else None
    certification = {
        "verdict": "SMOOTH" if success else "INCONCLUSIVE",
        "attempts": attempts,
        "connected_components_h0": connectedness(cls),
        "smoothness": None if cert is None else cert.to_json_dict(),
        "discriminant": {"degree": disc_degree, "expected": disc_degree, "ok": success},
        "cokernel_rank_ok": success,
    }
    doc = {
        "command": "sample",
        "stratum": report,
        "pattern": args.pattern,
        "certification": certification,
        "pair": pair_to_json_dict(pair),
        "curve": None if curve is None else curve_to_json_dict(curve),
        "provenance": {
            "smoothness": "chart Jacobian elimination over F_p and F_p^2 points",
            "connected_components_h0": "h0 of the structure sheaf from class numerics",
            "discriminant": DISCRIMINANT_PROVENANCE,
            "cokernel_rank_ok": COKERNEL_PROVENANCE,
        },
    }
    emit(doc, args, parser)
    return EXIT_OK if success else EXIT_INCONCLUSIVE


def _lemma_run(args, parser) -> int:
    _refuse_unread(args, parser, "dominance --lemma")
    _require(args, parser, "e", "f")
    cls = _class(args, parser)
    _check_types(args, cls, parser)
    grid = degree_grid(args.e, args.f, cls.m)
    reason = is_point_obstruction(grid) if args.lemma == "is" else None
    if reason is not None:
        parser.error(f"--lemma is: {reason}")
    rng = _rng(args, "lemma", args.lemma, args.e, args.f, cls.m, args.p)
    if args.lemma == "is":
        ok = lemma_is_check(cls.k, args.e, args.f, cls.m, rng=rng, p=args.p)
    else:
        pair = sample_pair(grid, "SUT", args.p, rng)
        check = lemma_sq_check if args.lemma == "sq" else lemma_main_check
        ok = check(pair)
    doc = {
        "command": "dominance",
        "lemma": args.lemma,
        "selector": LEMMA_SELECTORS[args.lemma],
        "e": list(args.e),
        "f": list(args.f),
        "ok": bool(ok),
        "provenance": {
            "ok": {
                "sq": "rank of the first and last coefficient blocks equals their size",
                "main": "image matches divisibility by the super-anti-diagonal product",
                "is": "evaluation rows at the distinguished point are independent",
            }[args.lemma]
        },
    }
    emit(doc, args, parser)
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def cmd_dominance(args, parser) -> int:
    if args.lemma is not None:
        return _lemma_run(args, parser)
    _require(args, parser, "e")
    cls = _class(args, parser)
    _check_types(args, cls, parser)
    if args.f is not None:
        _refuse_unread(args, parser, "dominance --f")
        strata = [(args.e, args.f)]
    else:
        strata = [
            (r.e, r.f) for r in enumerate_strata(cls, window=args.window, e=args.e)
        ]
    rows = []
    for e, f in strata:
        rng = None
        if args.seed is not None:
            rng = _rng(args, "dominance", e, f, cls.m, cls.k, cls.delta, args.p)
        rep = dict(dominance_rank(e, f, cls, trials=args.trials, rng=rng, p=args.p))
        rep["e"], rep["f"] = list(e), list(f)
        rows.append(rep)
    doc = {
        "command": "dominance",
        "class": {"m": cls.m, "k": cls.k, "delta": cls.delta},
        "p": args.p,
        "columns": ["e", "f", "target_dim", "source_dim", "max_rank", "trials", "verdict"],
        "rows": rows,
        "provenance": {
            "target_dim": "sum of coefficient block lengths delta + (k - i) m + 1",
            "source_dim": "count of nonnegative-degree matrix entries, both letters",
            "max_rank": f"exact Gaussian elimination over F_{args.p}",
            "verdict": f"DOMINANT when some trial among {args.trials} reaches the target",
        },
    }
    if not rows:
        doc["provenance"]["rows"] = "no companion type passes the stratum conditions"
    emit(doc, args, parser)
    if not rows:
        return EXIT_EMPTY
    bad = [(r["e"], r["f"]) for r in rows if r["verdict"] != "DOMINANT"]
    if not bad:
        return EXIT_OK
    if all(
        forced_reducibility(degree_grid(tuple(e), tuple(f), cls.m)).verdict != "NONE"
        for e, f in bad
    ):
        return EXIT_EMPTY
    return EXIT_INCONCLUSIVE


def cmd_section5(args, parser) -> int:
    _refuse_unread(args, parser, "section5 --" + args.mode.replace("_", "-"))
    if args.mode == "abundance":
        cls, a = _cover_class(args, parser)
        _min_bound(args, parser, 0, "the window has e_1 = 0")
        res = abundance_verdict(cls, e_bound=args.bound)
        doc = {
            "command": "section5",
            "mode": "abundance",
            "class": {"m": cls.m, "k": cls.k, "delta": cls.delta},
            "scrollar": list(a.a),
            "verdict": res["verdict"],
            "witness": None if res["witness"] is None else list(res["witness"]),
            "e_bound": res["e_bound"],
            "provenance": {
                "verdict": "conjectured polytope swept against the realizability test",
                "witness": "least conjectured type failing the realizability test",
            },
        }
    elif args.mode == "oo":
        _require(args, parser, "k")
        if args.bound is None:
            parser.error("--oo requires --bound")
        if args.k < 2:
            parser.error(f"--oo needs k >= 2 (at least one invariant), got k = {args.k}")
        _min_bound(args, parser, 1, "a_1 >= 1")
        rows = [{"a": list(a.a)} for a in oo_polytope(args.k, args.bound)]
        doc = {
            "command": "section5",
            "mode": "oo",
            "k": args.k,
            "bound": args.bound,
            "columns": ["a"],
            "rows": rows,
            "provenance": {"rows": "a_{i+j} <= a_i + a_j with 0 < a_1 <= ... <= a_{k-1} <= bound"},
        }
    elif args.mode == "ol":
        cls, a = _cover_class(args, parser)
        _min_bound(args, parser, 0, "the window has e_1 = 0")
        bound = args.bound if args.bound is not None else a.a[-1] + 2
        rows = [{"e": list(e)} for e in ol_polytope(a, bound)]
        doc = {
            "command": "section5",
            "mode": "ol",
            "class": {"m": cls.m, "k": cls.k, "delta": cls.delta},
            "scrollar": list(a.a),
            "bound": bound,
            "columns": ["e"],
            "rows": rows,
            "provenance": {"rows": "e_{i+j} <= a_i + e_j, normalized e_1 = 0, entries <= bound"},
        }
    elif args.mode == "general_cover":
        _require(args, parser, "k", "g")
        if args.k < 2 or args.g < 0:
            parser.error(f"--general-cover needs k >= 2 and g >= 0, got k = {args.k}, g = {args.g}")
        witness = general_cover_not_abundant(args.k, args.g)
        doc = {
            "command": "section5",
            "mode": "general_cover",
            "k": args.k,
            "g": args.g,
            "witness": None if witness is None else list(witness),
            "provenance": {
                "witness": "splitting type in the scrollar polytope of the balanced cover "
                "whose expected codimension exceeds g"
            },
        }
    else:
        _require(args, parser, "d", "e", "f")
        if not len(args.d) == len(args.e) == len(args.f):
            parser.error("--d, --e and --f must have equal length")
        rep = general_bound_check(args.d, args.e, args.f, g=args.g)
        doc = {
            "command": "section5",
            "mode": "triple",
            **rep.to_json_dict(),
            "provenance": {
                "violations": "index pairs with f_{i+j-k} < d_i + e_j",
                "degree_ok": "sum(d) + sum(e) - sum(f) against -(g + k - 1)",
            },
        }
    emit(doc, args, parser)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


# every flag a subcommand may take, as add_argument keywords
FLAGS = {
    "m": dict(type=int),
    "k": dict(type=int),
    "delta": dict(type=int),
    "e": dict(type=_parse_type, help="comma-separated, weakly increasing"),
    "f": dict(type=_parse_type, help="comma-separated, weakly increasing"),
    "d": dict(type=_parse_type, help="comma-separated, weakly increasing"),
    "p": dict(type=_prime, default=DEFAULT_PRIME, help="field characteristic"),
    "seed": dict(type=int, help="seed (fallback: HBN_SEED)"),
    "window": dict(type=_parse_window, help="lo,hi"),
    "trials": dict(type=_positive_int, default=5),
    "retries": dict(type=_positive_int, default=8),
    "pattern": dict(choices=PATTERNS, default="FULL", help="sampling pattern"),
    "lemma": dict(choices=("sq", "main", "is")),
    "degree": dict(type=int),
    "sections": dict(type=int),
    "g": dict(type=int),
    "bound": dict(type=int),
    "format": dict(choices=("json", "csv", "pretty"), default="json"),
    "out": dict(help="write output to this path"),
}

# subcommand: (help, the flags it reads besides --format and --out)
SUBCOMMANDS = {
    "enumerate": ("stratum tables", "m k delta e window degree sections"),
    "sample": ("sample and certify a curve", "m k delta e f p seed pattern retries"),
    "dominance": ("rank certification", "m k delta e f p seed window trials lemma"),
    "section5": ("scrollar bound reports", "m k delta e f d g bound"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbn",
        description="Splitting-type experiments for curves on Hirzebruch surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in SUBCOMMANDS.items():
        # no prefix matching: `enumerate --f` must not be read as --format
        cmd_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in names.split() + ["format", "out"]:
            cmd_parser.add_argument("--" + name, **FLAGS[name])
    modes = sub.choices["section5"].add_mutually_exclusive_group(required=True)
    for mode in ("abundance", "oo", "ol", "general-cover", "triple"):
        modes.add_argument("--" + mode, dest="mode", action="store_const", const=mode.replace("-", "_"))
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves the parser unchanged."""
    return build_parser()


_NUMLIST = re.compile(r"^-\d+(,-?\d+)*$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Let `--e -8,-4,-1` parse: glue number-list values onto their flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in ("--e", "--f", "--d", "--window")
            and i + 1 < len(argv)
            and _NUMLIST.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    args.given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    env = os.environ.get("HBN_SEED")
    if "seed" in args and args.seed is None and env is not None:
        try:
            args.seed = int(env)
        except ValueError:
            parser.error(f"HBN_SEED must be an integer, got {env!r}")
    if args.out:
        _check_out(args.out, parser)
    # looked up at call time, so a patched or traced command is the one run
    command = globals()["cmd_" + args.command]
    try:
        return command(args, parser)
    except PrimeTooSmallError as exc:
        parser.error(f"--p {args.p}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
