"""Frontend: statement grammar, error recovery, spans, canonical render."""

from __future__ import annotations

import random
import re
import sys

import pytest

from helpers import (
    CORPUS,
    check_source,
    load_corpus_file,
    ontology_content,
    reference_tokens,
    round_trip,
)

from okc.frontend import MAX_TIME_DIGITS, _accept, _parse_tokens, _tokenize_line, parse, render
from okc.kernel import KERNEL_DECLARATIONS, kernel_ontology
from okc.model import (
    AnnotationDecl,
    ConceptDecl,
    Conjunction,
    Diagnostic,
    DisjointDecl,
    Fact,
    InstanceDecl,
    MetaLabel,
    RelationDecl,
    RoleDefinition,
    Severity,
)


def parse_one(line: str):
    decls, diags = parse(line, "<one>")
    assert not diags, [d.render() for d in diags]
    assert len(decls) == 1
    return decls[0]


def test_parse_label_statement():
    decl = parse_one("label Task Diagnosis at 1")
    assert decl == MetaLabel("Task", "Diagnosis", 1, line=1)


def test_parse_empty_file():
    assert parse("", "<empty>") == ([], [])


def test_negative_time_literal_is_one_diagnostic_with_recovery():
    text = "label Task Diagnosis at -1\nconcept Diagnosis specializes Reasoning\n"
    decls, diags = parse(text, "<t>")
    assert len(diags) == 1
    d = diags[0]
    assert d.code == "P1" and d.severity is Severity.ERROR
    assert d.span.line == 1 and d.span.column == 25  # at the literal
    assert len(decls) == 1  # the next statement still parsed


@pytest.mark.parametrize("line,expected", [
    ("concept Root", ConceptDecl("Root")),
    ("concept A specializes PT", ConceptDecl("A", ("PT",))),
    ("concept A specializes ED, PD", ConceptDecl("A", ("ED", "PD"))),
    ("concept M = Model and CalibrationData",
     ConceptDecl("M", (), Conjunction("Model", "CalibrationData"))),
    ("role CalibrationData = data of Calibrating",
     ConceptDecl("CalibrationData", (), RoleDefinition("data", "Calibrating"))),
    ("role R = result of Diagnosis",
     ConceptDecl("R", (), RoleDefinition("result", "Diagnosis"))),
    ("relation PC signature (ED, PD) temporal",
     RelationDecl("PC", (("ED",), ("PD",)), temporal=True)),
    ("relation isAgentOf signature (APO|ASO, AC)",
     RelationDecl("isAgentOf", (("APO", "ASO"), ("AC",)))),
    ("relation isDataOf particularizes isAffectedBy signature (Content, AC)",
     RelationDecl("isDataOf", (("Content",), ("AC",)), particularizes="isAffectedBy")),
    ("relation PRE signature (PD) temporal",
     RelationDecl("PRE", (("PD",),), temporal=True)),
    ("disjoint ED PD", DisjointDecl("ED", "PD")),
    ("annotate X rigidity anti-rigid", AnnotationDecl("X", "rigidity", "anti-rigid")),
    ("annotate X identity carries", AnnotationDecl("X", "identity", "carries")),
    ("annotate X dependence independent", AnnotationDecl("X", "dependence", "independent")),
    ("instance m : Model", InstanceDecl("m", ("Model",))),
    ("instance m : Model, Data", InstanceDecl("m", ("Model", "Data"))),
    ("fact isDataOf(m, d)", Fact("isDataOf", ("m", "d"), None)),
    ("fact PC(m, d, 3)", Fact("PC", ("m", "d"), 3)),
    ("fact PRE(d, 0)", Fact("PRE", ("d",), 0)),
])
def test_statement_forms(line, expected):
    assert parse_one(line) == expected._replace(line=1)


@pytest.mark.parametrize("line", [
    "frobnicate X",                     # unknown statement keyword
    "label Frobnicate X at 1",          # unknown primitive keyword
    "concept",                          # missing name
    "concept 9X specializes PT",        # bad identifier
    "concept A-B specializes PT",       # hyphen in identifier
    "relation R signature ()",          # empty signature
    "fact PC(m, d,)",                   # trailing comma
    "fact PC()",                        # no arguments
    "annotate X rigidity sometimes",    # bad value
    "instance m Model",                 # missing colon
    "concept A specializes PT extra",   # trailing input
])
def test_syntax_errors(line):
    decls, diags = parse(line, "<bad>")
    assert decls == []
    assert len(diags) == 1 and diags[0].code == "P1"


def test_recovery_reports_multiple_errors_per_file():
    text = "concept A specializes PT\nbad line here\nconcept B specializes PT\nworse ?\n"
    decls, diags = parse(text, "<multi>")
    assert len(decls) == 2
    assert [d.span.line for d in diags] == [2, 4]


def test_crlf_accepted():
    decls, diags = parse("concept A specializes PT\r\nconcept B specializes A\r\n", "<crlf>")
    assert not diags and len(decls) == 2


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_only_lf_crlf_and_cr_end_a_line(char):
    decls, diags = parse(f"# note{char}more\nconcept A specializes PT\r\n"
                         f"concept B specializes A\rconcept C{char}specializes B\n", "<b>")
    assert not diags
    assert [(d.name, d.line) for d in decls] == [("A", 2), ("B", 3), ("C", 4)]
    diags = check_source(f"# note{char}more\nconcept A specializes Nope\n")
    assert [(d.code, d.span.line) for d in diags] == [("E3", 2)]


def test_comment_only_and_blank_lines():
    decls, diags = parse("\n# note\n   \n", "<c>")
    assert decls == [] and diags == []


def test_render_is_deterministic(car_ontology):
    assert render(car_ontology) == render(car_ontology)


def test_render_kernel_round_trips():
    assert ontology_content(round_trip(kernel_ontology())) == \
        ontology_content(kernel_ontology())


@pytest.mark.parametrize("name", ["car_diagnosis.oks", "calibration.oks", "a4_a5_a6.oks"])
def test_render_corpus_round_trips(name):
    onto = load_corpus_file(name)
    assert ontology_content(round_trip(onto)) == ontology_content(onto)


def test_seeded_one_token_corruptions_are_located():
    """Any token replaced by garbage yields a P1 at exactly its column."""
    text = (CORPUS / "car_diagnosis.oks").read_text(encoding="utf-8")
    lines = text.splitlines()
    corruptions = 0
    for line_index, line in enumerate(lines):
        for token in _tokenize_line(line):
            start = token.column - 1
            corrupted_line = line[:start] + "??" + line[start + len(token.text):]
            corrupted = "\n".join(
                lines[:line_index] + [corrupted_line] + lines[line_index + 1:])
            _, diags = parse(corrupted, "<corrupt>")
            located = [(d.code, d.span.line, d.span.column) for d in diags]
            assert located == [("P1", line_index + 1, token.column)], (
                f"corrupted token at {line_index + 1}:{token.column} ({token.text!r})")
            corruptions += 1
    assert corruptions > 100


def test_tokenizer_matches_the_per_character_reference():
    """Seeded random lines over letters, digits, punctuation, `#` and the
    whitespace the token parser skips tokenize as the per-character loop
    does, `#` inside a bad token and at a token's start included."""
    alphabet = "aZq09_-(),:=|!#" + " \t\x0c\x85\u3000"
    rng = random.Random(26)
    hashes = {"inside": 0, "start": 0}
    for _ in range(20000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        tokens = _tokenize_line(line)
        assert tokens == reference_tokens(line), line
        hashes["inside"] += any("#" in t.text for t in tokens)
        hashes["start"] += "#" in line and not any("#" in t.text for t in tokens)
    assert min(hashes.values()) > 1000, hashes


def test_regex_whitespace_is_str_isspace():
    """The tokenizer skips what `\\s` matches, where the token parser
    skips what `str.isspace` accepts; the two agree on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_diagnostic_text_format():
    _, diags = parse("label Task Diagnosis at -1", "m.oks")
    assert diags[0].render().startswith("m.oks:1:25: error[P1]")


def test_time_point_digit_limit():
    at_limit = "9" * MAX_TIME_DIGITS
    decl = parse_one(f"label Task X at {at_limit}")
    assert decl.time == int(at_limit)
    decl = parse_one(f"fact PC(m, d, {at_limit})")
    assert decl.time == int(at_limit)
    for line in (f"label Task X at {at_limit}0", f"fact PC(m, d, {at_limit}0)"):
        decls, diags = parse(line, "<big>")
        assert decls == []
        [d] = diags
        assert (d.code, d.message) == ("P1", "time point too large")
        assert d.span.column == line.index("9") + 1


# Lines where a pattern could plausibly read more or less than the tokens do.
ACCEPT_EDGE_LINES = [
    "concept specializes",
    "concept A specializes specializes",
    "concept A-B",
    "concept A#note",
    "concept\tA  specializes B ,C\t# note",
    "  concept A=B and C",
    "concept A = B andC",
    "concept A\u00a0specializes B",
    "role R=data of C",
    "role R = database of C",
    "relation particularizes signature (A)",
    "relation particularizes particularizes signature (A)",
    "relation R particularizes signature signature (A)",
    "relation R signature(B|A, C|A|B)temporal",
    "relation R signature (A) temporalX",
    "relation R signature (A,) temporal",
    "disjoint A B C",
    "label Task X at 007",
    "label Tasks X at 1",
    "label Task X at 1x",
    "label Task X at ٣",
    "annotate X rigidity anti-rigid#c",
    "annotate X identity rigid",
    "annotate X-Y rigidity rigid",
    "instance i:A,B",
    "instance i : A, B,",
    "fact R(3)",
    "fact R(a,b,3)",
    "fact R(a, 3, b)",
    "fact R(a, #b)",
    "fact R (a) # note",
    "fact R(a_1, b2)",
    "fact R(a, _b)",
    "fact R(é)",
]
MUTATION_ALPHABET = " \t(),:=|#-_x7é٣"


def _corpus_lines() -> list[str]:
    return [line for path in sorted(CORPUS.glob("**/*.oks"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def _mutate(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(line) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert":
            line = line[:pos] + rng.choice(MUTATION_ALPHABET) + line[pos:]
        elif pos < len(line):
            replacement = rng.choice(MUTATION_ALPHABET) if op == "replace" else ""
            line = line[:pos] + replacement + line[pos + 1:]
    return line


def test_accept_path_covers_the_corpus():
    for line in _corpus_lines():
        slow = _parse_tokens(line, 1, "<c>")
        expected = None if isinstance(slow, Diagnostic) else slow
        assert _accept(line, 1) == expected, line


def test_accept_path_returns_what_the_token_parser_returns():
    """Seeded mutations of corpus lines: the accept path declines or agrees."""
    rng = random.Random(20261018)
    lines = ACCEPT_EDGE_LINES + _corpus_lines()
    lines += [_mutate(rng, line) for line in lines for _ in range(40)]
    accepted = 0
    for line in lines:
        fast = _accept(line, 7)
        if fast is not None:
            slow = _parse_tokens(line, 7, "<m>")
            assert fast == slow and fast.line == slow.line == 7, repr(line)
            accepted += 1
    assert accepted > len(lines) // 10


def _workload_files(monkeypatch) -> list:
    """The 64 seed-3 files of the benchmark workloads."""
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import families

    files = [f for _, family in sorted(families.FAMILIES.items())
             for workload in [family(3)] for f in workload.files + workload.half]
    assert len(files) == 64
    return files


def test_accept_path_returns_what_the_token_parser_returns_on_the_workload_files(monkeypatch):
    """Every line of the 64 seed-3 benchmark files that the accept path takes,
    which covers fact time points, labels and definitions at scale.  Records
    equal only records of their own class, so the accept path's positional
    records must list the same fields in the same order.  The workloads
    declare no relations; signature unions are covered by the lines above."""
    accepted = []
    for f in _workload_files(monkeypatch):
        for line_no, line in enumerate(f.text.split("\n"), start=1):
            fast = _accept(line, line_no)
            if fast is not None:
                slow = _parse_tokens(line, line_no, f.name)
                assert fast == slow and fast.line == slow.line == line_no, (f.name, line_no, line)
                accepted.append(fast)
    assert len(accepted) > 60_000
    kinds = {type(d) for d in accepted} | {type(d.definition) for d in accepted
                                           if isinstance(d, ConceptDecl)}
    assert kinds >= {ConceptDecl, DisjointDecl, MetaLabel, AnnotationDecl, InstanceDecl, Fact,
                     RoleDefinition, Conjunction}
    assert any(d.time is not None for d in accepted if isinstance(d, Fact))


def test_records_hold_their_line_numbers(monkeypatch):
    """Line 0 marks the kernel's records, and only them: every kernel record
    holds it, and each record parsed from a seed-3 benchmark file holds the
    1-based index of its line, so the token parser reads the same record,
    line included, from that line alone."""
    assert all(d.line == 0 for d in KERNEL_DECLARATIONS)
    parsed = 0
    for f in _workload_files(monkeypatch):
        lines = f.text.split("\n")
        decls, _ = parse(f.text, f.name)
        assert decls and decls[0].line >= 1, f.name
        assert all(a.line < b.line for a, b in zip(decls, decls[1:])), f.name
        for d in decls:
            assert d == _parse_tokens(lines[d.line - 1], d.line, f.name), (f.name, d)
        parsed += len(decls)
    assert parsed > 60_000
