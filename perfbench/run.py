#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the okc command line.

    python3 perfbench/run.py --workload activities --seed 1 --seconds 40 --trace 0

Generates the workload's `.oks` files from the seed (see families.py),
then runs `okc check`, `okc compile` and `okc explain` through
`okc.cli.main` in this one process, in rounds, until `--seconds` have
passed.  Every output is checked against the generator's own plan, and so
are the golden bundles, the negative corpus and each defect class planted
alone.  Each metric is printed by name and unit; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured untraced; set-up,
check, compile and explain times are scaled to a reference loop's speed
(see `reference_seconds`).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics (self seconds and counts per round, see README.md) plus the
tracing overhead; traced outputs must equal untraced ones.

The program is imported from `src/` next to this directory; files are
written only under `.perfbench_work/` in the same checkout and removed at
exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import families
from families import ModelFile, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".perfbench_work"

BUNDLE_FILES = ("domain.json", "inference.json", "task.json")
MAX_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("check_s", "s"), ("compile_s", "s"), ("explain_s", "s"),
              ("growth", "ratio"), ("peak_rss_mb", "MB"))

# Every code in okc.checks.REGISTRY at the time the benchmark was defined.
FINDING_CODES = ("P1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "C1",
                 "W1", "W2", "S1", "S2", "A3", "A13", "R13", "Ad35",
                 "A7", "A8", "L2b", "L3", "L4", "L5", "L6")

# Per-layer metric -> span whose self time it reports.
LAYER_SECONDS = {
    "frontend.parse_s": "frontend.parse",
    "model.load_s": "model.load",
    "reasoner.cycles_s": "reasoner.cycles",
    "reasoner.closure_s": "reasoner.closure",
    "reasoner.saturate_s": "reasoner.saturate",
    "reasoner.explain_s": "reasoner.explain",
    "checks.validate_s": "checks.validate",
    **{f"checks.{c}_s": f"checks.{c}"
       for c in ("w2", "s1", "s2", "a3", "ad35", "temporal", "labels")},
    "bundle.compile_s": "bundle.compile",
    "bundle.effective_labels_s": "bundle.effective_labels",
    "bundle.emit_s": "bundle.emit",
    "cli.self_s": "cli.main",
}
LAYER_COUNTS = (
    "frontend.lines", "frontend.p1", "model.decls",
    "reasoner.closure_pairs", "reasoner.closure_calls",
    "reasoner.saturate_calls", "reasoner.asserted",
    *(f"reasoner.derived.{rule}"
      for rule in ("M-up", "R-up", "D1", "D2", "D3", "D4", "D5", "D6")),
    "bundle.bytes", "bundle.task_concepts", "bundle.inference_concepts",
    "bundle.domain_concepts",
)
PER_LAYER = (
    *((name, "s") for name in LAYER_SECONDS),
    *((name, "count") for name in LAYER_COUNTS),
    *((f"checks.findings.{code}", "count") for code in FINDING_CODES),
    ("trace.overhead_s", "s"),
)

_DIAGNOSTIC = re.compile(r"^(.*?):(?:\d+:\d+:)? (?:error|warning)\[(\w+)\] ", re.M)


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    digest: str = ""

    def same_output(self, other: "Outcome") -> bool:
        return (self.code, self.stdout, self.stderr, self.digest) == \
            (other.code, other.stdout, other.stderr, other.digest)


def findings(stderr: str) -> dict[str, Counter]:
    """Diagnostics per file name and code, from okc's text output."""
    out: dict[str, Counter] = {}
    for path, code in _DIAGNOSTIC.findall(stderr):
        out.setdefault(Path(path).name, Counter())[code] += 1
    return out


def memberships(explain_stdout: str) -> frozenset:
    """Concepts listed under `memberships of X:` by `okc explain`."""
    lines = explain_stdout.splitlines()
    out = set()
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        out.add(line.strip().split("  ")[0].partition(" : ")[2])
    return frozenset(out)


def _bundle_names(directory: Path, filename: str) -> Optional[frozenset]:
    try:
        doc = json.loads((directory / filename).read_text(encoding="utf-8"))
        return frozenset(c["name"] for c in doc["concepts"])
    except (OSError, ValueError, KeyError, TypeError):
        return None  # counted as a mismatch by the caller


class Bench:
    """One benchmark run: its files, its operations and their checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.out = workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"MISMATCH {what}", file=sys.stderr)
        return ok

    def write(self, files: list[ModelFile]) -> list[str]:
        paths = []
        for f in files:
            path = self.workdir / f.name
            path.write_text(f.text, encoding="utf-8")
            paths.append(str(path))
        return paths

    def run(self, argv: list[str], out: Optional[Path] = None) -> Outcome:
        """One okc invocation through `okc.cli.main`, timed."""
        from okc import cli

        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            code = cli.main(argv, stdout=stdout, stderr=stderr)
        except Exception:  # okc must never raise; record it as a failed operation
            code = None
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        digest = ""
        if out is not None and out.is_dir():
            digest = hashlib.sha256(b"".join(
                (out / f).read_bytes() for f in BUNDLE_FILES if (out / f).is_file())).hexdigest()
        return Outcome(code, stdout.getvalue(), stderr.getvalue(), seconds, digest)

    # -- the workload's operations, each with the check of its output

    def operations(self, workload: Workload) -> dict[str, Callable[[], Outcome]]:
        main = self.write(workload.files)
        half = self.write(workload.half)
        target = str(self.workdir / workload.target.name)
        return {
            "check": lambda: self._check(["check", *main], workload.files),
            "half": lambda: self._check(["check", *half], workload.half),
            "compile": lambda: self._compile(target, workload.target),
            "explain": lambda: self._explain(target, workload.target),
        }

    def _findings_match(self, outcome: Outcome, files: list[ModelFile], what: str) -> bool:
        got = findings(outcome.stderr)
        expected = {f.name: f.findings for f in files if f.findings}
        return self.expect(got == expected, f"{what}: findings {got} != {expected}")

    def _check(self, argv: list[str], files: list[ModelFile]) -> Outcome:
        outcome = self.run(argv)
        code = 1 if any(f.has_errors() for f in files) else 0
        self.expect(outcome.code == code and outcome.stdout == "",
                    f"check exit {outcome.code} != {code}: {outcome.stderr[-300:]}")
        self._findings_match(outcome, files, "check")
        return outcome

    def _compile(self, path: str, target: ModelFile) -> Outcome:
        outcome = self.run(["compile", path, "--out", str(self.out)], self.out)
        self._findings_match(outcome, [target], "compile")
        if target.has_errors():
            self.expect(outcome.code == 1 and not outcome.digest,
                        f"compile of a faulty model: exit {outcome.code}, bundle written")
            return outcome
        if not self.expect(outcome.code == 0 and outcome.digest != "",
                           f"compile exit {outcome.code}: {outcome.stderr[-300:]}"):
            return outcome
        for filename, expected in (("task.json", target.task),
                                   ("inference.json", target.inference),
                                   ("domain.json", target.domain)):
            got = _bundle_names(self.out, filename)
            self.expect(got == expected, f"{filename}: concepts differ from the plan")
        first = self.digests.setdefault(path, outcome.digest)
        self.expect(outcome.digest == first, "bundle bytes differ between repetitions")
        return outcome

    def _explain(self, path: str, target: ModelFile) -> Outcome:
        outcome = self.run(["explain", path, target.probe])
        got = memberships(outcome.stdout) if outcome.code == 0 else frozenset()
        self.expect(outcome.code == 0 and got == target.probe_memberships,
                    f"explain {target.probe}: exit {outcome.code}, memberships "
                    f"{sorted(got ^ target.probe_memberships)} differ")
        return outcome

    # -- checks made once per run

    def corpus_checks(self) -> None:
        for name in ("car_diagnosis", "calibration"):
            out = self.workdir / f"golden-{name}"
            outcome = self.run(["compile", str(CORPUS / f"{name}.oks"), "--out", str(out)], out)
            same = outcome.code == 0 and all(
                (out / f).is_file()
                and (out / f).read_bytes() == (CORPUS / "golden" / name / f).read_bytes()
                for f in BUNDLE_FILES)
            self.expect(same, f"corpus/{name}.oks does not compile to its golden bundle")
        for path in sorted((CORPUS / "negative").glob("*.oks")):
            named = path.stem.split("_")[0]
            got = findings(self.run(["check", str(path)]).stderr).get(path.name, Counter())
            self.expect({code.lower() for code in got} == {named},
                        f"{path.name} emits {sorted(got)}")
        plants = families.single_plants()
        for plant, path in zip(plants, self.write(plants)):
            self._findings_match(self.run(["check", path]), [plant], plant.name)

    def setup_sample(self) -> float:
        """Wall time of a fresh `python -m okc kernel` process.  The first
        call fills the bytecode cache; every output must equal the first."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "okc", "kernel"], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, timeout=120)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(done.stdout).hexdigest()
        first = self.digests.setdefault("okc kernel", digest)
        self.expect(done.returncode == 0 and b"concept Reasoning specializes AC" in done.stdout
                    and digest == first,
                    f"okc kernel exit {done.returncode}, or output differs between runs")
        return seconds


# Shared hosts change speed by tens of percent from one minute to the
# next, as other tenants load the cores and caches.  A fixed pure-Python
# loop runs between operations, and every set-up, check, compile and
# explain sample is reported at the loop's nominal speed: sample *
# REFERENCE_S / mean of the loop times just before and just after it.
# Like okc, the loop builds, indexes and sorts tuples of strings over a
# working set of megabytes, so cache contention slows both alike; a loop
# over a few thousand keys tracked okc about half as well.  Raw medians
# are printed as well.
REFERENCE_S = 0.15


def reference_seconds() -> float:
    # The collector stays off, so the loop's time does not depend on how
    # many objects okc leaves alive in this process.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        pairs = [(f"k{i * 7919 % 80_021}", i) for i in range(80_000)]
        sorted(dict(pairs).items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def _rounds(seconds: float, round_fn: Callable[[], None], minimum: int = 1) -> int:
    """Run rounds until the next one would end after `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        round_fn()
        rounds += 1
        now = time.perf_counter()
        if rounds >= minimum and now - start + (now - began) > seconds:
            return rounds


def measure_end_to_end(bench: Bench, ops, seconds: float) -> dict[str, float]:
    bench.setup_sample()  # untimed: fills the bytecode cache
    raw: dict[str, list[float]] = {name: [] for name in ("setup", *ops)}
    scaled: dict[str, list[float]] = {name: [] for name in raw}
    reference: list[float] = []
    ratios: list[float] = []
    peak_rss: list[float] = []
    # After the first round, operations far cheaper than the slowest one
    # repeat within a round, so they get more samples for the same time.
    repeats = dict.fromkeys(ops, 1)

    def one_round() -> None:
        # The first round warms up and reads okc's own peak RSS, so it runs
        # no reference loop and its times are not counted.
        timed = bool(peak_rss)
        if timed:
            reference.append(reference_seconds())
        times = {}
        for name, op in ops.items():
            setup = bench.setup_sample()  # spread over the whole run, like the others
            times[name] = [op().seconds for _ in range(repeats[name])]
            if timed:
                reference.append(reference_seconds())
                speed = 2 * REFERENCE_S / (reference[-2] + reference[-1])
                for key, values in (("setup", [setup]), (name, times[name])):
                    raw[key] += values
                    scaled[key] += [t * speed for t in values]
        # ratio of adjacent passes at both sizes: drift in machine speed cancels
        ratios.append(statistics.median(times["check"]) / statistics.median(times["half"]))
        if not timed:
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            slowest = max(values[0] for values in times.values())
            repeats.update({name: min(MAX_REPEATS, max(1, int(slowest / values[0])))
                            for name, values in times.items()})

    rounds = _rounds(seconds, one_round, minimum=2)
    med = {name: statistics.median(values) for name, values in scaled.items()}
    print(f"rounds          {rounds}, the first untimed; reference loop median "
          f"{statistics.median(reference):.4f} s over {len(reference)} runs, "
          f"nominal {REFERENCE_S} s")
    for name, values in raw.items():
        print(f"  {name:8} {len(values):3} samples, raw median {statistics.median(values):.4f} s, "
              f"at reference speed {med[name]:.4f} s")
    return {
        "setup_s": med["setup"],
        "check_s": med["check"],
        "compile_s": med["compile"],
        "explain_s": med["explain"],
        "growth": statistics.median(ratios),
        "peak_rss_mb": peak_rss[0],
    }


TRACED_OPS = ("check", "compile", "explain")


def traced_round(ops, tracer) -> tuple[dict[str, Outcome], dict[str, float]]:
    """One check, compile and explain under the tracer: outcomes and the
    round's per-layer metrics (without the tracing overhead)."""
    tracer.reset()
    tracer.install()
    try:
        seen = {name: ops[name]() for name in TRACED_OPS}
    finally:
        tracer.restore()
    own = tracer.self_times()
    metrics = {name: own[span] for name, span in LAYER_SECONDS.items()}
    metrics.update({name: tracer.counts[name] for name in LAYER_COUNTS})
    found = Counter()
    for per_file in findings(seen["check"].stderr).values():
        found.update(per_file)
    metrics.update({f"checks.findings.{code}": found[code] for code in FINDING_CODES})
    return seen, metrics


def measure_layers(bench: Bench, ops, seconds: float) -> dict[str, float]:
    from tracer import Tracer, table

    untraced, traced, per_round = [], [], []
    spans = []
    tracer = Tracer()

    def one_round() -> None:
        plain = {name: ops[name]() for name in TRACED_OPS}
        untraced.append(sum(o.seconds for o in plain.values()))
        seen, metrics = traced_round(ops, tracer)
        traced.append(sum(o.seconds for o in seen.values()))
        for name in TRACED_OPS:
            bench.expect(seen[name].same_output(plain[name]),
                         f"traced {name} output differs from the untraced one")
        per_round.append(metrics)
        spans.extend(tracer.spans)

    rounds = _rounds(seconds, one_round)
    print(f"rounds          {rounds}")
    print("spans per round: name, calls, total s, self s")
    for name, calls, total, own in table(spans):
        print(f"  {name:26} {calls / rounds:8.1f} {total / rounds:10.4f} {own / rounds:10.4f}")
    out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    # each round's traced pass minus its own untraced pass, so drift cancels
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return out


def use_sources() -> bool:
    """Put the checkout's `src/` first on the import path, if it is there."""
    if not (SRC / "okc" / "cli.py").is_file() or not (CORPUS / "golden").is_dir():
        print(f"perfbench: no okc sources under {SRC} or no corpus under {CORPUS}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workdir)
        workload = families.FAMILIES[args.workload](args.seed)
        ops = bench.operations(workload)
        bench.corpus_checks()
        print(f"perfbench {args.workload} seed={args.seed} python={platform.python_version()} "
              f"nproc={os.cpu_count()} files={len(workload.files)} "
              f"lines={sum(f.text.count(chr(10)) for f in workload.files)}")
        if args.trace:
            metrics = measure_layers(bench, ops, args.seconds)
            units = dict(PER_LAYER)
        else:
            metrics = measure_end_to_end(bench, ops, args.seconds)
            units = dict(END_TO_END)
    finally:
        remove_workdir(workdir)

    for name, value in metrics.items():
        print(f"{name:30} {value:.6g} {units[name]}")
    print(f"{'failed_frac':30} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
