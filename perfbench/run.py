"""Benchmark of hbn's three certificate paths at p = 10007.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hbn is imported from its `src/`.
Workloads (see BENCHMARK.json for why each is there):

  dominance-desk  hbn.differential.dominance_rank on passing desk strata
  sample-certify  `hbn sample` through hbn.cli.main on connected shift classes
  lemma-sut       lemma_is_check, lemma_main_check and lemma_sq_check on
                  k = 3, 4 shift classes

Load is closed-loop: one process, one thread, one item at a time.  Every
item's output is checked independently of hbn (see workloads.py); a
failed check or an exception counts against pass_ratio.

--trace 0 measures for S seconds with tracing off and reports the
end-to-end metrics.  setup_s is the median of several fresh interpreters
each importing hbn and running the warm-up items.

--trace 1 takes a fixed number of items (S times a per-workload rate, so
counts repeat exactly for a given seed and S), runs them untraced, then
again with every layer wrapped (tracing.py), and reports calls, self_s
and total_s per layer, the counts read at layer boundaries and
trace.overhead_ratio.  The spans go to .perfbench/spans-<workload>.npz.

The last stdout line is the result JSON; the line before it, `info`,
holds machine notes, a calibration probe timed before and after the
run, the fail ratio and a sha256 digest of the per-item results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generator

# workloads and tracing import hbn and numpy, so they are imported late:
# set-up timing must include those imports, and a directory without the
# program must fail before any of them
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 5
DIGEST_ITEMS = 100
# traced-run items per second of --seconds: about one untraced and one
# traced pass over the items fit in S seconds on a 2-core Xeon
TRACE_RATE = {"dominance-desk": 45.0, "sample-certify": 1.5, "lemma-sut": 30.0}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=generator.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="time one set-up and exit (internal)")
    return ap.parse_args(argv)


def use_checkout_src() -> None:
    """Put the checkout's src/ first on the import path."""
    if not (SRC / "hbn").is_dir():
        raise SystemExit(f"perfbench: no hbn sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def check_hbn_origin() -> None:
    import hbn.cli

    if Path(hbn.cli.__file__).resolve().parent != SRC / "hbn":
        raise SystemExit(f"perfbench: hbn was imported from {hbn.cli.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# machine notes and set-up


def calibration_probe() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 1
        for i in range(1, 200_000):
            acc = (acc * i + 7) % generator.P
        best = min(best, time.perf_counter() - t0)
    return best


def machine_notes(args) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "p": generator.P,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_once(workload: str) -> float:
    """Import hbn in this (fresh) interpreter and run the warm-up items."""
    warm = generator.warmup_items(workload)
    t0 = time.perf_counter()
    import workloads

    run, _ = workloads.WORKLOADS[workload]
    ctx = workloads.new_context(str(OUT / f"setup-{workload}.json"))
    for it in warm:
        run(it, ctx)
    elapsed = time.perf_counter() - t0
    check_hbn_origin()
    return elapsed


def setup_times(workload: str) -> list[float]:
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# item loop


class Pass:
    """Outcome of running a sequence of items: times, failures, digest."""

    def __init__(self, workload: str, digest_all: bool = False):
        import workloads

        self.workload = workload
        self.digest_limit = None if digest_all else DIGEST_ITEMS
        self.run, self.check = workloads.WORKLOADS[workload]
        self.ctx = workloads.new_context(str(OUT / f"sample-{workload}.json"))
        self.times: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_items = 0

    def one(self, item, span=None) -> None:
        t0 = time.perf_counter()
        try:
            if span is None:
                result = self.run(item, self.ctx)
            else:
                with span(item.index):
                    result = self.run(item, self.ctx)
        except (Exception, SystemExit) as exc:
            self.times.append(time.perf_counter() - t0)
            ok, record = False, ["raised", type(exc).__name__, str(exc)[:200]]
        else:
            self.times.append(time.perf_counter() - t0)
            try:
                ok, record = self.check(item, result, self.ctx)
            except Exception as exc:
                ok, record = False, ["check raised", type(exc).__name__, str(exc)[:200]]
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"item {item.index} {item.stratum}: {record}")
        if self.digest_limit is None or self.digest_items < self.digest_limit:
            self.digest.update(json.dumps([item.index, ok, record]).encode() + b"\n")
            self.digest_items += 1

    @property
    def attempted(self) -> int:
        return len(self.times)


def warm_up(workload: str) -> None:
    warm = Pass(workload)
    for it in generator.warmup_items(workload):
        warm.one(it)


def timed_run(args) -> tuple[Pass, dict]:
    """Closed loop over the item stream for --seconds, tracing off."""
    warm_up(args.workload)
    gc.collect()
    res = Pass(args.workload)
    stop = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < stop:
        res.one(generator.item(args.workload, args.seed, index))
        index += 1
    times = res.times
    metrics = {
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": 1000 * statistics.median(times),
        "item_ms_p90": 1000 * statistics.quantiles(times, n=10)[8] if len(times) > 1 else 1000 * times[0],
        "pass_ratio": (len(times) - res.failed) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return res, metrics


def trace_items(args) -> int:
    return max(3, round(args.seconds * TRACE_RATE[args.workload]))


def traced_run(args, save: bool = True):
    """The same items untraced, then traced; per-layer metrics."""
    import tracing

    items = generator.items(args.workload, args.seed, trace_items(args))
    warm_up(args.workload)
    gc.collect()
    plain = Pass(args.workload, digest_all=True)
    for it in items:
        plain.one(it)
    rec = tracing.Recorder()
    res = Pass(args.workload, digest_all=True)
    with rec.installed():
        for it in items:
            res.one(it, span=rec.item_span)
    if plain.digest.hexdigest() != res.digest.hexdigest():
        raise RuntimeError("tracing changed the per-item results")
    metrics = per_layer_metrics(rec, res, sum(plain.times))
    if save:
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"spans-{args.workload}.npz")
    return res, metrics, rec


def per_layer_metrics(rec, res: Pass, untraced_s: float) -> dict:
    """Every per-layer metric (name -> (value, unit)); 0 where a layer is absent."""
    import tracing

    out = {}
    for label, row in rec.summary().items():
        out[f"{label}.calls"] = (row["calls"], "count")
        out[f"{label}.self_s"] = (row["self_s"], "s")
        out[f"{label}.total_s"] = (row["total_s"], "s")
    for counter in tracing.COUNTERS:
        out[counter] = (rec.counts[counter], "count")
    ctx = res.ctx
    dominance = res.attempted if res.workload == "dominance-desk" else 0
    sample = res.attempted if res.workload == "sample-certify" else 0
    out["differential.dominance_rank.trials"] = (ctx["trials"], "count")
    out["differential.dominance_rank.first_trial_ratio"] = (ctx["first_trial"] / dominance if dominance else 0.0, "ratio")
    out["cli.sample.attempts"] = (ctx["attempts"], "count")
    out["cli.sample.first_attempt_ratio"] = (ctx["first_attempt"] / sample if sample else 0.0, "ratio")
    draws = ctx["sut_draws"] + out["determinantal.sample_is_point.calls"][0]
    out["differential.lemma.draws"] = (draws, "count")
    out["differential.lemma.useful_ratio"] = (ctx["lemma_ok"] / draws if draws else 0.0, "ratio")
    out["trace.spans"] = (len(rec.start), "count")
    out["trace.overhead_ratio"] = (untraced_s / sum(res.times), "ratio")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_src()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_once(args.workload)}))
        return 0
    check_hbn_origin()
    notes = machine_notes(args)
    info = {"machine": notes}
    if args.trace:
        notes["probe_before_s"] = calibration_probe()
        res, layer, rec = traced_run(args)
        notes["probe_after_s"] = calibration_probe()
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        info["missing_layers"] = rec.missing
        info["hook_errors"] = rec.hook_errors
    else:
        setups = setup_times(args.workload)
        notes["probe_before_s"] = calibration_probe()
        res, e2e = timed_run(args)
        notes["probe_after_s"] = calibration_probe()
        e2e["setup_s"] = statistics.median(setups)
        info["setup_samples_s"] = setups
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    info["items"] = res.attempted
    info["fail_ratio"] = res.failed / res.attempted
    info["digest"] = res.digest.hexdigest()
    info["digest_items"] = res.digest_items
    for line in res.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15s} {'fail_ratio':52s} {info['fail_ratio']:.6g} ratio ({res.attempted} items)")
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res.failed == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
