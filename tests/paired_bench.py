"""Run `perfbench/run.py` on two checkouts in alternating pairs and compare.

    python tests/paired_bench.py --parent ../base --change . \\
        --workload taxonomy --pairs 10 --seconds 40 [--seed 1] [--trace 0]

Pair k runs each checkout's own `perfbench/run.py` once with seed
`--seed` + k; the parent runs first in even pairs and the change in odd
ones.  Before each run every `__pycache__` directory and `.perfbench_work`
in both checkouts is removed, so neither side starts from bytecode that
the other lacks.  Each run's last line is the benchmark's JSON object;
the script prints one table row per metric: each side's median
[quartiles], the ratio of the medians (change / parent), and the pairs in
which the change read lower, every metric being lower-is-better.  It
exits 1 if a run does not end in `"correct": true`.  The name does not
start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def _clean(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(checkout / ".perfbench_work", ignore_errors=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """The benchmark's JSON object, or None if the run did not end in one."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    try:
        return json.loads(lines[-1]) if result.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def _summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    correct = True
    for k in range(args.pairs):
        seed = args.seed + k
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            for checkout in sides.values():
                _clean(checkout)
            result = _run(sides[side], args.workload, seed, args.seconds, args.trace)
            ok = result is not None and result["correct"] is True
            print(f"pair {k + 1} seed {seed} {side}: {'correct' if ok else 'NOT CORRECT'}",
                  flush=True)
            correct = correct and ok
            runs[side].append(result["metrics"] if result else {})
    for checkout in sides.values():
        _clean(checkout)

    names = [m for m in runs["parent"][0] if all(m in r for rs in runs.values() for r in rs)]
    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g} "
          f"--trace {args.trace}, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print("| workload | metric | parent | change | ratio | change better |")
    print("|---|---|---|---|---|---|")
    for name in names:
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        base = statistics.median(parent)
        ratio = f"{statistics.median(change) / base:.3f}" if base else "-"
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"| {args.workload} | {name} | {_summary(parent)} | {_summary(change)} | "
              f"{ratio} | {wins}/{args.pairs} |")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
