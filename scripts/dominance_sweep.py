#!/usr/bin/env python3
"""Certify dominance for every passing stratum in a window sweep.

Walks all classes with k <= --kmax, m <= --mmax, delta <= --dmax, entries in
[--lo, --hi], keeps the strata passing the two inequality conditions, and
runs the exact rank certification on each.  Prints running stats and a
summary: how many strata ran, how many certified on the first trial, and
how many never reached the target within --trials (there should be none).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from hbn.differential import dominance_rank
from hbn.exact.field import check_prime
from hbn.splitting import enumerate_strata
from hbn.sweeps import WINDOW, desk_classes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--mmax", type=int, default=3)
    ap.add_argument("--dmax", type=int, default=3)
    ap.add_argument("--lo", type=int, default=WINDOW[0])
    ap.add_argument("--hi", type=int, default=WINDOW[1])
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--p", type=int, default=10007)
    ap.add_argument("--out", default=None, help="write failing strata as JSON")
    args = ap.parse_args()
    try:
        check_prime(args.p)
    except ValueError as exc:
        ap.error(f"--p {exc}")
    if args.trials < 1:
        ap.error(f"--trials must be at least 1, got {args.trials}")

    t0 = time.time()
    total = first_trial = 0
    failures = []
    for cls in desk_classes(k_max=args.kmax, m_max=args.mmax, delta_max=args.dmax):
        for row in enumerate_strata(cls, window=(args.lo, args.hi)):
            e, f = row.e, row.f
            rep = dominance_rank(e, f, cls, trials=args.trials, p=args.p)
            total += 1
            if rep["verdict"] == "DOMINANT" and rep["trials"] == 1:
                first_trial += 1
            elif rep["verdict"] != "DOMINANT":
                failures.append({"m": cls.m, "k": cls.k, "delta": cls.delta,
                                 "e": list(e), "f": list(f), **rep})
            if total % 2000 == 0:
                print(f"  ... {total} strata, {time.time() - t0:.0f}s", file=sys.stderr)

    dt = time.time() - t0
    print(f"strata run       : {total}")
    print(f"first-trial rate : {first_trial}/{total} = {first_trial / max(total, 1):.4f}")
    print(f"not achieved     : {len(failures)}")
    print(f"wall time        : {dt:.1f}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"failures": failures, "total": total}, fh, sort_keys=True, indent=2)
    return 0 if not failures else 3


if __name__ == "__main__":
    raise SystemExit(main())
