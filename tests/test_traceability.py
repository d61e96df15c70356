"""Traceability: the axiom-code table diffs cleanly against the registry
and every fixture behaves as recorded."""

from __future__ import annotations

import pytest

from helpers import check_source, corpus_source, load_source
from traceability import (
    BY_CODE,
    REQUIRED_CODES,
    RULE_CODES,
    TABLE,
    VALIDATOR_CODES,
    Fixture,
    TraceRow,
)

from okc.bundle import compile_bundle
from okc.checks import REGISTRY
from okc.kernel import kernel_ontology
from okc.model import Severity
from okc.reasoner import compute_closure, direct_supers, saturate


def test_table_covers_exactly_the_required_codes():
    assert sorted(r.code for r in TABLE) == sorted(REQUIRED_CODES)
    assert len({r.code for r in TABLE}) == len(TABLE)


def test_every_mechanism_resolves():
    closure = compute_closure(kernel_ontology())
    for row in TABLE:
        kind = row.mechanism[0]
        if kind == "kernel-edge":
            _, child, parent = row.mechanism
            decl = kernel_ontology().concepts[child]
            assert parent in direct_supers(decl), row.code
            assert closure.subsumes(parent, child)
        elif kind == "rule":
            assert row.mechanism[1] in RULE_CODES, row.code
        elif kind == "check":
            code = row.mechanism[1]
            assert code in REGISTRY and code in VALIDATOR_CODES, row.code
        else:  # pragma: no cover
            raise AssertionError(f"unknown mechanism kind {kind!r}")


def test_falsifiable_rows_have_failing_fixtures():
    for row in TABLE:
        assert row.passing, f"{row.code} has no passing fixture"
        if row.falsifiable:
            assert row.failing, f"{row.code} marked falsifiable without failing fixture"
            assert row.mechanism[0] == "check"


def _fixture_source(fixture: Fixture) -> str:
    if fixture.corpus is not None:
        return corpus_source(fixture.corpus)
    assert fixture.source is not None
    return fixture.source


def _run_fixture(row: TraceRow, fixture: Fixture) -> None:
    source = _fixture_source(fixture)
    if fixture.expect in ("clean", "emits"):
        assert row.mechanism[0] == "check"
        mapped_code = row.mechanism[1]
        diags = check_source(source)
        found = [d for d in diags if d.code == mapped_code]
        if fixture.expect == "clean":
            assert not found, (row.code, [d.render() for d in found])
        else:
            assert found, (row.code, [d.render() for d in diags])
    else:
        onto, load_diags = load_source(source, f"<{row.code}>")
        assert onto is not None, load_diags
        facts = saturate(onto, compute_closure(onto))
        has = facts.has_member(fixture.instance, fixture.concept)
        if fixture.expect == "derives":
            assert has, (row.code, fixture.instance, fixture.concept)
        else:
            assert not has, (row.code, fixture.instance, fixture.concept)


@pytest.mark.parametrize("row", TABLE, ids=lambda r: r.code)
def test_fixtures_behave_as_recorded(row):
    for fixture in row.passing + row.failing:
        _run_fixture(row, fixture)


def test_error_severity_blocks_compilation_codes():
    # Severities as emitted: Ad35 and C1 warn, so they never block a compile; A7 errs.
    ad35 = check_source(corpus_source("ad35_idle_endurant"))
    assert {(d.code, d.severity) for d in ad35} == {("Ad35", Severity.WARNING)}
    a7 = check_source(corpus_source("a7_task_on_state"))
    assert {(d.code, d.severity) for d in a7} == {(BY_CODE["A7"].mechanism[1], Severity.ERROR)}
    _, warnings = compile_bundle(kernel_ontology(), 0)
    assert [(d.code, d.severity) for d in warnings] == [("C1", Severity.WARNING)]
