"""The inputs of `tests/output_digests.py` stand apart from `okc`.

The digest script runs over the `src` of other checkouts too, so its
inputs must load without `okc`, and the one input rendered by `okc` is a
checked-in file that must stay what this checkout renders.  The inputs
written for the token parser and the finding paths give what the digest
script's docstring lists them for.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from helpers import (
    D5_CHAIN_SOURCE,
    D6_CHAIN_SOURCE,
    L4_SOURCE,
    LOAD_FINDINGS_SOURCE,
    P1_SOURCE,
    REDECLARATION_SOURCE,
    TOKEN_PARSER_SOURCE,
    check_source,
    cycle_source,
    load_source,
    random_shared_model,
)

from okc.frontend import _accept, parse, render
from okc.reasoner import compute_closure, explain_instance, saturate

TESTS = Path(__file__).resolve().parent


def test_shared_model_file_is_the_render_of_its_model():
    text = (TESTS / "shared_model_1.oks").read_text(encoding="utf-8")
    assert text == render(random_shared_model(1))


def test_digest_inputs_import_nothing_from_okc():
    probe = (
        "import sys\n"
        "sys.modules['okc'] = None  # any import of okc raises ImportError\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import digest_inputs\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'okc'))\n")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", probe, str(TESTS)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["['okc']"]


def test_token_parser_source_reads_every_line_by_the_token_parser():
    lines = TOKEN_PARSER_SOURCE.splitlines()
    assert not any(_accept(line, n) for n, line in enumerate(lines, start=1))
    assert parse(TOKEN_PARSER_SOURCE, "a") == parse(TOKEN_PARSER_SOURCE.replace("\u3000", " "), "a")
    assert check_source(TOKEN_PARSER_SOURCE) == []


def test_p1_source_gives_one_p1_a_line():
    decls, diags = parse(P1_SOURCE, "p1.oks")
    assert decls == []
    assert [(d.code, d.span.line) for d in diags] == \
        [("P1", n) for n in range(1, len(P1_SOURCE.splitlines()) + 1)]


def test_finding_sources_give_their_codes():
    codes = {name: sorted({d.code for d in check_source(text)}) for name, text in (
        ("load", LOAD_FINDINGS_SOURCE), ("cycle", cycle_source(12)), ("l4", L4_SOURCE))}
    assert codes == {"load": ["E1", "E2", "E3", "E4", "E7"], "cycle": ["W1"], "l4": ["L4"]}


def test_redeclaration_source_gives_e1_on_each_differing_redeclaration_only():
    findings = check_source(REDECLARATION_SOURCE)
    assert [(d.code, d.span.line, d.subjects) for d in findings] == \
        [("E1", 5, ("Finding",)), ("E1", 9, ("Probe",)), ("E1", 13, ("m",))]


def test_chain_sources_derive_a_membership_from_one_derived_in_the_same_trigger():
    traces = {}
    for name, text in (("d6", D6_CHAIN_SOURCE), ("d5", D5_CHAIN_SOURCE)):
        onto, _ = load_source(text)
        traces[name] = explain_instance(saturate(onto, compute_closure(onto)), "x")
    assert "  x : C1  [D6] from x : Model, x : B\n" in traces["d6"]
    assert "  x : C2  [D6] from x : C1, x : B\n" in traces["d6"]
    assert "  x : R1  [D5] from isDataOf(x, x), x : Diagnosis\n" in traces["d5"]
    assert "  x : R2  [D5] from isDataOf(x, x), x : R1\n" in traces["d5"]
