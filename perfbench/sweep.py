#!/usr/bin/env python3
"""Scaling sweep: traced `activities` at doubling n, per-layer seconds.

    python3 perfbench/sweep.py --seed 1 --budget 600 --out sweep.json

Runs one traced round (check, compile, explain) at n = 100, 200, 400, ...
and stops before the next size would overrun `--budget` seconds, judged
by the last round's time and growth.  For every layer it prints the self
seconds at each size and the growth exponent log2(t(n) / t(n/2)), where
1.0 is linear and 2.0 quadratic.  The `check x2` line is the ratio
check_s(n) / check_s(n/2).  Outputs are checked as in run.py.

Not part of the per-change workload runs: the quadratic layers make
n = 3,200 take minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

import families
import run
from tracer import Tracer


def _exponent(now: float, before: float) -> float | None:
    if now < 1e-3 or before < 1e-3:
        return None  # too small to time
    return math.log2(now / before)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=600.0)
    parser.add_argument("--out", default=None, help="also write the result as JSON here")
    args = parser.parse_args(argv)
    if not run.use_sources():
        return 2

    rows = []
    failed = 0
    workdir = run.WORK / f"sweep-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        n, growth = 100, 4.0
        while True:
            bench = run.Bench(workdir)
            ops = bench.operations(families.activities(args.seed, n))
            began = time.perf_counter()
            seen, metrics = run.traced_round(ops, Tracer())
            took = time.perf_counter() - began
            failed += bench.failed
            rows.append({"n": n, **{name: seen[name].seconds for name in run.TRACED_OPS},
                         "layers": metrics})
            print(f"n={n:5} check {seen['check'].seconds:8.3f} s  round {took:8.3f} s",
                  file=sys.stderr)
            if len(rows) > 1:
                growth = max(rows[-1]["check"] / rows[-2]["check"], 2.0)
            if time.perf_counter() - started + took * growth > args.budget:
                break
            n *= 2
    finally:
        run.remove_workdir(workdir)

    exponents = {}
    for name in run.LAYER_SECONDS:
        exponents[name] = [_exponent(b["layers"][name], a["layers"][name])
                           for a, b in zip(rows, rows[1:])]
    result = {
        "python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
        "failed": failed, "rows": rows, "exponents": exponents,
    }
    sizes = [r["n"] for r in rows]
    print(f"{'self seconds':26}" + "".join(f"{n:>10}" for n in sizes)
          + "   exponents " + " ".join(f"{n:>5}" for n in sizes[1:]))
    for name in run.LAYER_SECONDS:
        seconds = "".join(f"{r['layers'][name]:10.4f}" for r in rows)
        exps = " ".join("    -" if e is None else f"{e:5.2f}" for e in exponents[name])
        print(f"{name:26}{seconds}             {exps}")
    print(f"{'check x2':26}" + " " * 10 + "".join(
        f"{b['check'] / a['check']:10.2f}" for a, b in zip(rows, rows[1:])))
    print(f"failed operations: {failed}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
