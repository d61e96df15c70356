"""Core model: declaration conflicts, set semantics, order independence."""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    CORPUS,
    error_codes,
    load_source,
    ontology_content,
    random_loadable_decls,
    scan_references,
    unparsable_faults_model,
)
from traceability import Fixture, TraceRow

import okc
from okc import model
from okc.bundle import (
    BundleConcept,
    CompileRefusedError,
    DomainRelation,
    ModelBundle,
    PlaysLink,
    RoleRecord,
    compile_bundle,
)
from okc.checks import validate
from okc.frontend import Token, parse
from okc.kernel import KERNEL_DECLARATIONS, kernel_ontology, merge_with_kernel
from okc.model import (
    AnnotationDecl,
    ConceptDecl,
    Conjunction,
    Diagnostic,
    DisjointDecl,
    Fact,
    InstanceDecl,
    KERNEL_SOURCE,
    KERNEL_SPAN,
    MetaLabel,
    RelationDecl,
    RoleDefinition,
    Severity,
    SourceSpan,
    SourceText,
    load,
    source_lines,
)
from okc.reasoner import compute_closure, explain_instance, instance_component, saturate


def test_add_concept_to_kernel():
    onto, diags = merge_with_kernel([ConceptDecl("Diagnosis", ("Reasoning",))])
    assert diags == []
    assert onto.concepts["Diagnosis"].parents == ("Reasoning",)


def test_add_concept_with_undeclared_parent_is_a_conflict():
    onto, diags = merge_with_kernel([ConceptDecl("Diagnosis", ("Reasonin",))])
    assert onto is None
    assert error_codes(diags) == ["E3"]


_TWO_LINES = SourceText("<test>", "first\nsecond\n")


def test_reading_same_name_with_different_parents_is_a_conflict():
    onto, diags = merge_with_kernel([ConceptDecl("Diagnosis", ("Reasoning",), line=1),
                                     ConceptDecl("Diagnosis", ("Communication",), line=2)],
                                    _TWO_LINES)
    assert onto is None
    assert error_codes(diags) == ["E1"]


def test_identical_redeclaration_is_a_no_op():
    decl = ConceptDecl("Diagnosis", ("Reasoning",))
    base, _ = merge_with_kernel([decl])
    onto, diags = merge_with_kernel([decl, decl])
    assert diags == []
    assert ontology_content(onto) == ontology_content(base)


def test_kernel_concept_redefinition_rejected():
    onto, diags = merge_with_kernel([ConceptDecl("Reasoning", ("STV",))])
    assert onto is None
    assert error_codes(diags) == ["E2"]


def test_cross_kind_name_collision():
    onto, diags = merge_with_kernel([ConceptDecl("Widget", ("PT",), line=1),
                                     InstanceDecl("Widget", ("Model",), line=2)], _TWO_LINES)
    assert onto is None
    assert error_codes(diags) == ["E1"]


@pytest.mark.parametrize("first, second", [
    (ConceptDecl("Diagnosis", ("Reasoning",)), ConceptDecl("Diagnosis", ("Communication",))),
    (ConceptDecl("Widget", ("PT",)), InstanceDecl("Widget", ("Model",))),
], ids=["same-kind", "cross-kind"])
def test_clash_of_records_without_lines_is_a_kernel_redefinition(first, second):
    """Line 0 marks the kernel's declarations, so of two clashing records
    built in code without lines the first counts as the kernel's."""
    onto, diags = merge_with_kernel([first, second])
    assert onto is None
    assert error_codes(diags) == ["E2"]
    assert [d.render() for d in diags] == [
        f"<kernel>: error[E2] '{first.name}' redefines a kernel declaration"]


def test_instance_name_colliding_with_kernel_relation():
    onto, diags = merge_with_kernel([InstanceDecl("PC", ("Model",))])
    assert onto is None
    assert error_codes(diags) == ["E2"]


def test_duplicate_label_triple_rejected_even_when_identical():
    onto, diags = merge_with_kernel([
        ConceptDecl("Diagnosis", ("Reasoning",)),
        MetaLabel("Task", "Diagnosis", 1),
        MetaLabel("Task", "Diagnosis", 1),
    ])
    assert onto is None
    assert error_codes(diags) == ["E5"]


def test_fact_shape_errors():
    onto, diags = merge_with_kernel([
        InstanceDecl("m", ("Model",)),
        InstanceDecl("d", ("Reasoning",)),
        Fact("PC", ("m", "d"), None),        # temporal relation, no time
        Fact("isDataOf", ("m", "d"), 3),     # atemporal relation with time
        Fact("isDataOf", ("m",), None),      # arity mismatch
    ])
    assert onto is None
    assert error_codes(diags) == ["E4", "E4", "E4"]


def test_fact_argument_must_be_instance():
    onto, diags = merge_with_kernel([
        InstanceDecl("d", ("Reasoning",)),
        Fact("isDataOf", ("Model", "d"), None),
    ])
    assert onto is None
    assert error_codes(diags) == ["E3"]


def test_particularization_arity_and_cycles():
    onto, diags = merge_with_kernel([RelationDecl("narrow", (("ED",),), particularizes="PC")])
    assert onto is None
    assert error_codes(diags) == ["E7"]

    onto, diags = merge_with_kernel([
        RelationDecl("a", (("ED",), ("PD",)), particularizes="b"),
        RelationDecl("b", (("ED",), ("PD",)), particularizes="a"),
    ])
    assert onto is None
    assert set(error_codes(diags)) == {"E7"}


def test_load_order_independence():
    path = "car_diagnosis.oks"
    text = (CORPUS / path).read_text()
    decls, parse_diags = parse(text, path)
    assert not parse_diags
    reference, diags = merge_with_kernel(decls, SourceText(path, text))
    assert reference is not None and diags == []
    for seed in range(6):
        shuffled = decls[:]
        random.Random(seed).shuffle(shuffled)
        onto, diags = merge_with_kernel(shuffled, SourceText(path, text))
        assert diags == []
        assert ontology_content(onto) == ontology_content(reference)


def _faulty_model(seed: int) -> str:
    """Random model text with planted load errors E1-E7, several of them as
    groups of two or more declarations of one name, label or key."""
    rng = random.Random(seed)
    concepts = [f"C{i}" for i in range(rng.randint(3, 6))]
    instances = [f"i{k}" for k in range(rng.randint(2, 4))]
    lines = [f"concept {c} specializes {rng.choice(['PT', 'ED', 'Reasoning'])}"
             for c in concepts]
    lines += [f"instance {i} : {rng.choice(concepts)}" for i in instances]
    lines += ["relation r2 signature (ED, PD)", "relation t1 signature (PD) temporal"]

    def group(lines_of_group: list[str]) -> list[str]:
        return [rng.choice(lines_of_group) for _ in range(rng.randint(2, 4))]

    c, i = rng.choice(concepts), rng.choice(instances)
    plants = {
        "E1": lambda n: group([f"concept D{n} specializes {p}" for p in ("PT", "ED", "AC")])
        + [rng.choice([f"instance {c} : {c}", f"relation {c} signature (ED)"])],
        "E2": lambda n: [rng.choice(["concept PT specializes ED", "relation PC signature (ED)",
                                     f"instance Reasoning : {c}"])],
        "E3": lambda n: group([f"concept D{n} specializes Ghost{n}", f"fact r2({i}, ghost)",
                               f"fact ghost({i})", f"disjoint {c} Ghost",
                               f"disjoint Ghost {c}", f"instance j{n} : Ghost"]),
        "E4": lambda n: group([f"fact r2({i})", f"fact t1({i})", f"fact r2({i}, {i}, 3)",
                               f"disjoint {c} {c}"]),
        "E5": lambda n: group([f"label Task {c} at 1"]),
        "E6": lambda n: group([f"annotate {c} rigidity {v}"
                               for v in ("rigid", "anti-rigid", "semi-rigid")]),
        "E7": lambda n: [f"relation p{n}_{k} particularizes p{n}_{(k + 1) % 3} signature (ED)"
                         for k in range(3)]
        + [f"relation q{n} particularizes p{n}_0 signature (ED)",
           f"relation s{n} particularizes r2 signature (ED)"],
    }
    for n, code in enumerate(rng.choices(sorted(plants), k=rng.randint(3, 8))):
        lines += plants[code](n)
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_load_diagnostics_do_not_depend_on_declaration_order():
    # The user's declarations shuffled, with the kernel's before, after or
    # shuffled among them, give the same ontology and the same diagnostics.
    sources = [(path.name, path.read_text(encoding="utf-8"))
               for path in sorted((CORPUS / "negative").glob("*.oks"))]
    sources += [(f"random_{seed}.oks", _faulty_model(seed)) for seed in range(60)]
    kernel = list(KERNEL_DECLARATIONS)
    codes = set()
    for name, text in sources:
        decls, _ = parse(text, name)
        source = SourceText(name, text)
        onto, reference = merge_with_kernel(decls, source)
        codes.update(d.code for d in reference)
        orders = []
        for seed in range(3):
            rng = random.Random(seed)
            shuffled, mixed = decls[:], kernel + decls
            rng.shuffle(shuffled)
            rng.shuffle(mixed)
            orders += [kernel + shuffled, shuffled + kernel, mixed]
        for order in orders:
            other, diags = load(order, source)
            assert [d.to_json() for d in diags] == [d.to_json() for d in reference], name
            assert (other is None) == (onto is None), name
            if onto is not None:
                assert ontology_content(other) == ontology_content(onto), name
    assert {"E1", "E2", "E3", "E4", "E5", "E6", "E7"} <= codes


def _load_cases(family: str):
    """(name, user declarations, (code, message) of each plant, their source)
    per model."""
    if family == "negative corpus":
        for path in sorted((CORPUS / "negative").glob("*.oks")):
            text = path.read_text(encoding="utf-8")
            yield path.name, parse(text, path.name)[0], (), SourceText(path.name, text)
    elif family == "faulty":
        for seed in range(60):
            name, text = f"random_{seed}.oks", _faulty_model(seed)
            yield name, parse(text, name)[0], (), SourceText(name, text)
    elif family == "loadable":
        # Each fact again, in reverse, at an earlier line: every key repeats.
        for seed in range(100):
            decls = [d._replace(line=100 + line)
                     for line, d in enumerate(random_loadable_decls(seed))]
            again = [f._replace(line=line)
                     for line, f in enumerate(reversed(decls)) if isinstance(f, Fact)]
            yield f"loadable {seed}", decls + again, (), KERNEL_SOURCE
    else:
        for seed in range(60):
            yield (f"unparsable {seed}", *unparsable_faults_model(seed), KERNEL_SOURCE)


@pytest.mark.parametrize("family", ["negative corpus", "faulty", "loadable", "unparsable"])
def test_load_matches_a_scan_of_each_declaration(family, monkeypatch):
    # load resolves references by set difference and files the facts in one
    # dict build; a scan of each declaration, and each fact kept as the
    # earliest of its key, must give the same findings and facts.
    codes = set()
    for name, decls, plants, source in _load_cases(family):
        decls = [*KERNEL_DECLARATIONS, *decls]
        onto, found = load(decls, source)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_check_references", scan_references)
            scanned, expected = load(decls, source)
        assert [d.to_json() for d in found] == [d.to_json() for d in expected], name
        assert (onto is None) == (scanned is None), name
        assert set(plants) <= {(d.code, d.message) for d in found}, name
        codes.update(d.code for d in found)
        earliest: dict = {}
        for f in (d for d in decls if isinstance(d, Fact)):
            if f[:3] not in earliest or f.line < earliest[f[:3]].line:
                earliest[f[:3]] = f
        if onto is not None:
            assert list(onto.facts.items()) == list(earliest.items()), name
    if family != "loadable":
        assert {"E3", "E4"} <= codes, family
    if family == "faulty":
        assert {"E1", "E2", "E3", "E4", "E5", "E6", "E7"} <= codes


def test_every_public_name_resolves():
    assert len(set(okc.__all__)) == len(okc.__all__)
    for name in okc.__all__:
        assert hasattr(okc, name), name


def test_every_identifier_resolves(car_ontology):
    onto = car_ontology
    for c in onto.concepts.values():
        for p in c.parents:
            assert p in onto.concepts
    for r in onto.relations.values():
        for union in r.signature:
            for member in union:
                assert member in onto.concepts
        if r.particularizes:
            assert r.particularizes in onto.relations
    for i in onto.instances.values():
        for c in i.concepts:
            assert c in onto.concepts
    for f in onto.facts.values():
        assert f.relation in onto.relations
        for arg in f.args:
            assert arg in onto.instances
    for lb in onto.labels.values():
        assert lb.concept in onto.concepts


def test_definition_and_parents_are_mutually_exclusive():
    onto, diags = merge_with_kernel(
        [ConceptDecl("Odd", ("PT",), RoleDefinition("data", "Reasoning"))])
    assert onto is None
    assert error_codes(diags) == ["E4"]


@pytest.mark.parametrize("decl, message", [
    (RelationDecl("r", ()), "relation 'r' has an empty signature"),
    (AnnotationDecl("Gauge", "identity", "sometimes"),
     "invalid identity value 'sometimes' for 'Gauge'"),
], ids=["empty signature", "invalid annotation value"])
def test_malformed_records_no_statement_parses_to_are_refused(decl, message):
    """The parser refuses these forms with P1, so only records built in
    code and passed to `okc.load` reach these E4 findings."""
    onto, diags = merge_with_kernel([ConceptDecl("Gauge", ("PT",)), decl])
    assert onto is None
    assert [(d.code, d.message) for d in diags] == [("E4", message)]


@pytest.mark.parametrize("loader, source, line", [
    (merge_with_kernel, KERNEL_SOURCE, 3), (merge_with_kernel, KERNEL_SOURCE, -1),
    (load, KERNEL_SOURCE, 2), (load, _TWO_LINES, 4), (load, _TWO_LINES, -1),
], ids=["merge past the end", "merge negative", "load past the end", "load past the last line",
        "load negative"])
def test_a_line_outside_its_source_is_refused(loader, source, line):
    """A record's line must lie in its source text, or the load gives one
    E4 at the kernel span, before any finding needs a span from the line."""
    onto, diags = loader([ConceptDecl("A", ("Ghost",), line=line)], source)
    assert onto is None
    assert [(d.code, d.span, d.subjects) for d in diags] == [("E4", KERNEL_SPAN, ("A",))]
    last = len(source.text.split("\n"))
    assert diags[0].message == (f"line {line} of ConceptDecl 'A' is outside "
                                f"{source.file}, which has {last} line(s)")


def test_a_line_inside_its_source_takes_its_span_there():
    onto, diags = merge_with_kernel([ConceptDecl("A", ("Ghost",), line=3)], _TWO_LINES)
    assert onto is None
    assert [(d.code, d.span) for d in diags] == [("E3", SourceSpan("<test>", 3, 1))]


@pytest.mark.parametrize("text", ["", "a", "a\n", "a\r\nb\rc\n\r", "\r\r\n\n",
                                  "x\x0cy\x85z\u2028"])
def test_the_last_line_is_the_last_of_source_lines(text):
    """load counts a text's lines without splitting it, as `source_lines` splits them."""
    last = len(model.source_lines(text))
    for line, codes in ((last, ["E3"]), (last + 1, ["E4"]), (-1, ["E4"])):
        _, diags = merge_with_kernel([ConceptDecl("A", ("Ghost",), line=line)],
                                     SourceText("f", text))
        assert error_codes(diags) == codes
        assert codes == ["E3"] or diags[0].message.endswith(f"which has {last} line(s)")


def test_an_ontology_is_a_record_of_dicts():
    onto = kernel_ontology()
    copy = onto._replace(facts=dict(onto.facts))
    assert copy == onto and copy is not onto and onto != tuple(onto)
    with pytest.raises(TypeError):  # its fields are dicts
        hash(onto)
    with pytest.raises(AttributeError):
        onto.extra = 1


def test_hand_built_records_reach_every_entry_point_without_a_traceback():
    """Records built in code, with lines in and out of their source, go
    through `merge_with_kernel`, `validate`, `compile_bundle` and
    `explain_instance`.  Each call returns diagnostics or raises a
    documented exception: `CompileRefusedError`, or `ValueError` from
    `compute_closure` on a cycle.  In an even seed every line lies in its
    source; in an odd one, one record's line lies past the end or is
    negative, and the load refuses it by E4 at the kernel span alone."""
    sources = (KERNEL_SOURCE, SourceText("<one>", "x"),
               SourceText("<forty>", "".join(f"line {n}\n" for n in range(1, 41))[:-1]))
    outcomes = {"refused at load": 0, "refused at compile": 0, "compiled": 0}
    for seed in range(300):
        rng = random.Random(f"lines-{seed}")
        source = rng.choice(sources)
        last = len(source_lines(source.text))
        decls = [d._replace(line=rng.randint(0, last)) for d in random_loadable_decls(seed)]
        if seed % 2:
            i = rng.randrange(len(decls))
            decls[i] = decls[i]._replace(line=rng.choice((last + 1, last + 7, -1, -4)))
        onto, diags = merge_with_kernel(decls, source)
        assert all(isinstance(d, Diagnostic) for d in diags), seed
        if seed % 2:
            assert onto is None, seed
            assert {(d.code, d.span) for d in diags} == {("E4", KERNEL_SPAN)}, seed
            outcomes["refused at load"] += 1
            continue
        assert onto is not None, [d.render() for d in diags]
        found = validate(onto)
        assert all(d.span == KERNEL_SPAN or d.span.file == source.file
                   and 1 <= d.span.line <= last for d in found), seed
        try:
            compile_bundle(onto, onto.max_label_time())
            outcomes["compiled"] += 1
        except CompileRefusedError:
            outcomes["refused at compile"] += 1
        try:
            closure = compute_closure(onto)
        except ValueError:
            assert "W1" in {d.code for d in found}, seed
            continue
        for instance in onto.instances:
            text = explain_instance(saturate(instance_component(onto, instance), closure),
                                    instance)
            assert text.startswith(f"memberships of {instance}:\n"), seed
    assert outcomes["refused at load"] == 150 and min(outcomes.values()) > 0, outcomes


def test_equality_ignores_spans():
    text = "concept Thing specializes PT\n"
    first, _ = load_source(text, "a.oks")
    second, _ = load_source("# leading comment\n" + text, "b.oks")
    assert ontology_content(first) == ontology_content(second)


# --- record semantics --------------------------------------------------------

_SPAN = SourceSpan("a.oks", 1, 2)
_LINE = 4

# (record class, a field to overwrite, the values of all its fields)
RECORDS = [
    (SourceSpan, "line", ("a.oks", 1, 2)),
    (RoleDefinition, "mode", ("data", "X")),
    (Conjunction, "type_concept", ("data", "X")),
    (ConceptDecl, "parents", ("N", ("PT",), None, _LINE)),
    (RelationDecl, "signature", ("r", (("ED",),), False, None, _LINE)),
    (AnnotationDecl, "value", ("N", "rigidity", "rigid", _LINE)),
    (MetaLabel, "time", ("Task", "N", 1, _LINE)),
    (InstanceDecl, "concepts", ("i", ("N",), _LINE)),
    (Fact, "args", ("r", ("i",), None, _LINE)),
    (DisjointDecl, "second", ("A", "B", _LINE)),
    (Diagnostic, "code", (Severity.ERROR, "W2", "m", _SPAN, ("A", "B"))),
    (RoleRecord, "players", ("R", "data", "C", ("T",))),
    (BundleConcept, "methods", ("C", ("P",), (("rigidity", "rigid"),), (), (), ())),
    (DomainRelation, "range", ("r", "A", "B", False)),
    (PlaysLink, "role", ("T", "R")),
    (ModelBundle, "plays", (1, (), (), (), (), ())),
    (Token, "text", ("word", "concept", 1)),
    (Fixture, "expect", ("derives", None, "src", "i", "C")),
    (TraceRow, "note", ("W2", ("check",), True, (), (), "n")),
]


@pytest.mark.parametrize("cls, field, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_hashable_values(cls, field, values):
    first, second = cls(*values), cls(*values)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    with pytest.raises(AttributeError):
        setattr(first, field, second)
    assert first == second


@pytest.mark.parametrize("cls, field, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_equal_only_records_of_their_own_class(cls, field, values):
    record = cls(*values)
    assert record != values and values != record
    assert not record == values and not values == record
    others = [other(*values) for other, _, other_values in RECORDS
              if other is not cls and len(other_values) == len(values)]
    for other in others:
        assert record != other and other != record
        assert not record == other and not other == record
        assert len({record, other}) == 2


def test_importing_okc_leaves_dataclasses_unloaded(tmp_path):
    """Every command loads each module of the package but `okc.__main__`,
    and nothing of the test tree; no import of okc loads `dataclasses`.
    The probe sees only the source tree and starts outside it."""
    src = Path(okc.__file__).parents[1]
    model = tmp_path / "calibration.oks"
    model.write_text((CORPUS / "calibration.oks").read_text(encoding="utf-8"), encoding="utf-8")
    probe = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from okc.cli import main\n"
        "model, out = sys.argv[2:]\n"
        "for argv in (['check', model], ['compile', model, '--out', out],\n"
        "             ['explain', model, 'm1'], ['kernel']):\n"
        "    assert main(argv, io.StringIO(), io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'okc'))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('helpers', 'traceability', 'tests')))\n"
        "print('dataclasses' in sys.modules)\n")
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe, str(src), str(model), str(tmp_path / "bundle")],
        capture_output=True, text=True, cwd=tmp_path, check=True)
    package = {f"okc.{path.stem}" for path in (src / "okc").glob("*.py")}
    expected = sorted({"okc"} | package - {"okc.__init__", "okc.__main__"})
    assert result.stdout.splitlines() == [repr(expected), "[]", "False"]
