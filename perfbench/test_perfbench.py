"""Tests of the benchmark itself: generators, oracle, plants and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import families  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, table  # noqa: E402

SMALL = {
    "activities": dict(n=24),
    "taxonomy": dict(n=60, depth=4, fanout=3, disjoint_pairs=6),
    "faulty": dict(files=10, n_activities=6),
}


def _small(family: str, seed: int) -> families.Workload:
    return families.FAMILIES[family](seed, **SMALL[family])


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_same_seed_same_bytes(family):
    first, again, other = _small(family, 5), _small(family, 5), _small(family, 6)
    texts = [f.text for f in first.files + first.half]
    assert texts == [f.text for f in again.files + again.half]
    assert texts != [f.text for f in other.files + other.half]


@pytest.mark.parametrize("plant", families.single_plants(), ids=lambda p: p.name)
def test_each_defect_alone_gives_exactly_its_code(plant, tmp_path):
    bench = run.Bench(tmp_path)
    [path] = bench.write([plant])
    outcome = bench.run(["check", path])
    assert sum(plant.findings.values()) == 1
    assert run.findings(outcome.stderr) == {plant.name: plant.findings}, outcome.stderr


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
@pytest.mark.parametrize("seed", [1, 2])
def test_okc_matches_the_plan(family, seed, tmp_path):
    bench = run.Bench(tmp_path)
    for op in bench.operations(_small(family, seed)).values():
        op()
    assert bench.attempted > 0 and bench.failed == 0


def test_faulty_plants_every_validator_code():
    planted = set()
    for f in families.faulty_files(3):
        planted |= set(f.findings)
    assert set(families.VALIDATOR_PLANTS) | {"P1", "E3", "W1"} <= planted


def test_corpus_checks_pass(tmp_path):
    bench = run.Bench(tmp_path)
    bench.corpus_checks()
    assert bench.attempted > 20 and bench.failed == 0


def test_finding_codes_cover_the_registry():
    from okc.checks import REGISTRY

    assert set(run.FINDING_CODES) == set(REGISTRY)


def test_tracer_nests_spans_and_restores_originals(tmp_path):
    from okc import checks, cli

    originals = (cli.main, cli.validate, checks._VALIDATOR_CHECKS,
                 checks.check_labels)
    bench = run.Bench(tmp_path)
    ops = bench.operations(_small("activities", 1))
    plain = ops["compile"]()
    tracer = Tracer().install()
    try:
        traced = ops["compile"]()
    finally:
        tracer.restore()
    assert (cli.main, cli.validate, checks._VALIDATOR_CHECKS,
            checks.check_labels) == originals
    assert traced.same_output(plain)
    assert tracer.counts["reasoner.closure_calls"] == 2
    calls = {name: n for name, n, _, _ in table(tracer.spans)}
    assert calls["cli.main"] == 1 and calls["bundle.compile"] == 1
    assert calls["checks.s2"] == 1 and calls["checks.temporal"] == 1
    main_span = next(s for s in tracer.spans if s.name == "cli.main")
    assert sum(tracer.self_times().values()) <= main_span.end - main_span.start


@pytest.mark.parametrize("target", ["module", "registry"])
def test_tracer_refuses_a_missing_target(target, monkeypatch):
    from okc import checks, cli

    if target == "module":
        monkeypatch.delattr(cli, "validate")
    else:
        monkeypatch.setattr(checks, "_VALIDATOR_CHECKS", tuple(
            entry for entry in checks._VALIDATOR_CHECKS if entry[1] is not checks.check_s2))
    originals = (cli.main, checks._VALIDATOR_CHECKS)
    with pytest.raises((AttributeError, LookupError)):
        Tracer().install()
    assert (cli.main, checks._VALIDATOR_CHECKS) == originals
