"""Spans around okc's public functions, installed from outside the program.

Each function is wrapped under the name its caller imports it by, for
example `okc.cli.validate` and `okc.bundle.compute_closure`, so spans
nest the way the calls do: command -> validate -> closure/saturate/each
check, compile_bundle -> closure/effective_labels.  Work done twice shows
up as two spans.

The validator checks held in `okc.checks._VALIDATOR_CHECKS` are called
through that tuple, which `validate` reads from the module at call time,
so the tracer swaps in a tuple of wrapped checks; `validate` calls
`check_temporal_participation` and `check_labels` by module-global name
too.  This times the real calls, with no check run twice.

A span's self time is its duration minus the time its direct children
took, the children's tracing bookkeeping included, so self times add up
to the traced command minus the tracer's own overhead.

`install` raises if a target or a named registry check is missing from
the program, so a refactor that moves one fails the traced run instead
of reading 0.  A registry check not named here is left unwrapped: its
time counts as `validate`'s self time.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# (module, attribute, span name)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("okc.cli", "main", "cli.main"),
    ("okc.cli", "parse", "frontend.parse"),
    ("okc.cli", "merge_with_kernel", "model.load"),
    ("okc.cli", "validate", "checks.validate"),
    ("okc.bundle", "validate", "checks.validate"),
    ("okc.checks", "find_subsumption_cycles", "reasoner.cycles"),
    ("okc.cli", "compute_closure", "reasoner.closure"),
    ("okc.checks", "compute_closure", "reasoner.closure"),
    ("okc.bundle", "compute_closure", "reasoner.closure"),
    ("okc.cli", "saturate", "reasoner.saturate"),
    ("okc.checks", "saturate", "reasoner.saturate"),
    ("okc.cli", "explain_instance", "reasoner.explain"),
    ("okc.checks", "check_temporal_participation", "checks.temporal"),
    ("okc.checks", "check_labels", "checks.labels"),
    ("okc.cli", "compile_bundle", "bundle.compile"),
    ("okc.bundle", "effective_labels", "bundle.effective_labels"),
    ("okc.cli", "emit_bundle", "bundle.emit"),
)

# Checks reached through the registry tuple, by function name.
REGISTRY_CHECKS = {
    "check_w2": "checks.w2", "check_s1": "checks.s1", "check_s2": "checks.s2",
    "check_a3": "checks.a3", "check_ad35": "checks.ad35",
}


class Span:
    __slots__ = ("name", "command", "start", "end", "children")

    def __init__(self, name: str, command: Optional[str]):
        self.name = name
        self.command = command
        self.start = self.end = self.children = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


# --- counters taken from arguments and results, outside the timed span ----


def _count_parse(counts: Counter, command, args, result) -> None:
    counts["frontend.lines"] += len(args[0].splitlines())
    counts["frontend.p1"] += sum(1 for d in result[1] if d.code == "P1")


def _count_load(counts: Counter, command, args, result) -> None:
    counts["model.decls"] += len(args[0])


def _count_closure(counts: Counter, command, args, result) -> None:
    counts["reasoner.closure_pairs"] += sum(len(result.ancestors(c)) for c in result.concepts)
    if command == "compile":
        counts["reasoner.closure_calls"] += 1


def _count_saturate(counts: Counter, command, args, result) -> None:
    for derivation in result.trace.values():
        rule = derivation.rule
        counts["reasoner.asserted" if rule == "asserted" else f"reasoner.derived.{rule}"] += 1
    if command == "compile":
        counts["reasoner.saturate_calls"] += 1


def _count_compile(counts: Counter, command, args, result) -> None:
    bundle = result[0]
    counts["bundle.task_concepts"] += len(bundle.task_concepts)
    counts["bundle.inference_concepts"] += len(bundle.inference_concepts)
    counts["bundle.domain_concepts"] += len(bundle.domain_concepts)


def _count_emit(counts: Counter, command, args, result) -> None:
    counts["bundle.bytes"] += sum(Path(p).stat().st_size for p in result)


COUNTERS: dict[str, Callable] = {
    "frontend.parse": _count_parse,
    "model.load": _count_load,
    "reasoner.closure": _count_closure,
    "reasoner.saturate": _count_saturate,
    "bundle.compile": _count_compile,
    "bundle.emit": _count_emit,
}


class Tracer:
    """Keeps spans and counts in memory while installed; `reset` between
    rounds, `restore` puts the original functions back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._command: Optional[str] = None
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                self._command = argv[0] if argv else None
            span = Span(name, self._command)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                count(self.counts, span.command, args, result)
            if stack:
                stack[-1].children += perf_counter() - enter
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                self._patch(module, attr, self.wrap(name, getattr(module, attr)))
            checks = importlib.import_module("okc.checks")
            registry = checks._VALIDATOR_CHECKS
            wrapped = tuple((*entry[:-1], self._wrap_check(entry[-1])) for entry in registry)
            found = {fn.__name__ for *_, fn in registry if fn is not None}
            missing = sorted(set(REGISTRY_CHECKS) - found)
            if missing:
                raise LookupError(f"okc.checks._VALIDATOR_CHECKS lacks {missing}")
            self._patch(checks, "_VALIDATOR_CHECKS", wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def _wrap_check(self, fn: Optional[Callable]) -> Optional[Callable]:
        name = REGISTRY_CHECKS.get(fn.__name__) if fn is not None else None
        return fn if name is None else self.wrap(name, fn)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for span in self.spans:
            out[span.name] += span.self_time
        return out


def table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total seconds, self seconds), by self time."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += span.self_time
    return sorted(((n, calls[n], total[n], own[n]) for n in calls), key=lambda row: -row[3])
