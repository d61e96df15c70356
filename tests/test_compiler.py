"""Bundle compiler: effective labels, extraction rules, deterministic emission."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from helpers import (
    BUNDLE_FILES,
    CORPUS,
    REPO_ROOT,
    USER_RELATIONS_SOURCE,
    clean_corpus_files,
    effective_labels_oracle,
    load_source,
    random_label_model,
    random_role_model,
    reference_documents,
    role_io_oracle,
)

from okc import bundle as bundle_module
from okc.bundle import (
    BundleConcept,
    CompileRefusedError,
    DomainRelation,
    ModelBundle,
    PlaysLink,
    RoleRecord,
    compile_bundle,
    effective_labels,
    emit_bundle,
)
from okc.checks import validate
from okc.frontend import parse
from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import RelationDecl, SourceText, sort_diagnostics
from okc.reasoner import compute_closure


def compile_clean(onto, snapshot):
    bundle, warnings = compile_bundle(onto, snapshot)
    return bundle, warnings


def read_bundle(directory):
    return {name: json.loads((directory / name).read_text(encoding="utf-8"))
            for name in BUNDLE_FILES}


def test_kernel_only_snapshot_zero_is_empty_with_warning(tmp_path):
    bundle, warnings = compile_bundle(kernel_ontology(), 0)
    assert [w.code for w in warnings] == ["C1"]
    emit_bundle(bundle, tmp_path)
    docs = read_bundle(tmp_path)
    for name in BUNDLE_FILES:
        assert docs[name]["concepts"] == []
        assert docs[name]["snapshot_time"] == 0
        assert docs[name]["schema_version"] == "1"


def test_car_bundle_contents(car_ontology, tmp_path):
    bundle, warnings = compile_bundle(car_ontology, 3)
    assert warnings == []
    tasks = {c.name: c for c in bundle.task_concepts}
    assert set(tasks) == {"Diagnosis"}
    outputs = tasks["Diagnosis"].outputs
    assert [r.name for r in outputs] == ["DiagnosisResult"]
    assert outputs[0].mode == "result"
    assert outputs[0].reasoning_concept == "Diagnosis"
    assert outputs[0].players == ("Hypothesis",)
    assert tasks["Diagnosis"].inputs == ()
    assert tasks["Diagnosis"].methods == ()
    assert [c.name for c in bundle.domain_concepts] == ["EmptyFuelTank"]
    assert bundle.inference_concepts == ()
    assert {(p.type_concept, p.role) for p in bundle.plays} == {
        ("Hypothesis", "DiagnosisHypothesis")}


def test_calibration_bundle_contents(calibration_ontology):
    bundle, warnings = compile_bundle(calibration_ontology, 2)
    assert warnings == []
    tasks = {c.name: c for c in bundle.task_concepts}
    inputs = tasks["Calibrating"].inputs
    assert [r.name for r in inputs] == ["CalibrationData"]
    assert inputs[0].players == ("Model",)
    assert {(p.type_concept, p.role) for p in bundle.plays} == {
        ("Model", "ModelToCalibrate")}


def test_role_attachment_uses_subsumption():
    onto, _ = load_source(
        "concept Troubleshooting specializes Reasoning\n"
        "concept CarTroubleshooting specializes Troubleshooting\n"
        "role ProblemData = data of Troubleshooting\n"
        "annotate ProblemData rigidity anti-rigid\n"
        "annotate ProblemData dependence dependent\n"
        "label Task CarTroubleshooting at 1\n")
    bundle, _ = compile_bundle(onto, 1)
    task = bundle.task_concepts[0]
    # ProblemData targets Troubleshooting, which subsumes the task.
    assert [r.name for r in task.inputs] == ["ProblemData"]


def test_roles_inherited_from_unrelated_ancestors_merge_by_name():
    onto, _ = load_source(
        "concept Left specializes Reasoning\n"
        "concept Right specializes Reasoning\n"
        "concept Both specializes Left, Right\n"
        "role Delta = data of Left\n"
        "role Alpha = data of Right\n"
        "role Echo = data of Right\n"
        "role Charlie = result of Left\n"
        "role Bravo = result of Right\n"
        "label Task Both at 1\n")
    bundle, _ = compile_bundle(onto, 1)
    task = bundle.task_concepts[0]
    assert [r.name for r in task.inputs] == ["Alpha", "Delta", "Echo"]
    assert [r.name for r in task.outputs] == ["Bravo", "Charlie"]
    assert (task.inputs, task.outputs) == \
        role_io_oracle(onto, compute_closure(onto).subsumes, "Both")


def _io_against_oracle(onto, snapshot):
    """The task and inference concepts of the bundle, each checked against the oracle."""
    bundle, _ = compile_bundle(onto, snapshot)
    closure = compute_closure(onto)
    concepts = bundle.task_concepts + bundle.inference_concepts
    for concept in concepts:
        assert (concept.inputs, concept.outputs) == \
            role_io_oracle(onto, closure.subsumes, concept.name), concept.name
    return concepts


def test_role_io_against_subsumption_scan():
    assert sum(len(c.inputs) + len(c.outputs) for seed in range(100)
               for c in _io_against_oracle(random_role_model(seed), 3)) > 0


def test_taxonomy_io_and_labels_against_oracles(monkeypatch):
    """Concepts that inherit the same role-carrying ancestors share one io;
    the taxonomy workload has many of them."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import families

    onto, _ = load_source(families.taxonomy_file(1, n=200).text)
    for snapshot in range(9):
        assert effective_labels(onto, snapshot) == \
            effective_labels_oracle(onto, snapshot), snapshot
        concepts = _io_against_oracle(onto, snapshot)
    assert len({(c.inputs, c.outputs) for c in concepts}) < len(concepts)


def test_effective_labels_latest_wins():
    onto, _ = load_source(
        "concept Think specializes Reasoning\n"
        "label Inference Think at 1\n"
        "label Task Think at 4\n")
    assert effective_labels(onto, 3) == {"Inference": {"Think"}}
    assert effective_labels(onto, 4) == {"Task": {"Think"}}
    assert effective_labels(onto, 0) == {}

    bundle_3, _ = compile_bundle(onto, 3)
    assert [c.name for c in bundle_3.inference_concepts] == ["Think"]
    assert bundle_3.task_concepts == ()
    bundle_4, _ = compile_bundle(onto, 4)
    assert [c.name for c in bundle_4.task_concepts] == ["Think"]
    assert bundle_4.inference_concepts == ()


@pytest.mark.parametrize("seed", range(50))
def test_effective_labels_against_pairwise_oracle(seed):
    onto = random_label_model(seed)
    tied = [lb for lb in onto.labels.values() if lb.concept == "C0" and lb.time == 2]
    assert {lb.primitive for lb in tied} >= {"Task", "Inference"}
    for snapshot in range(onto.max_label_time() + 2):
        assert effective_labels(onto, snapshot) == \
            effective_labels_oracle(onto, snapshot), snapshot


def test_transfer_function_joins_inference_model():
    onto, _ = load_source(
        "concept Informing specializes Communication\n"
        "label TransferFunction Informing at 1\n")
    bundle, _ = compile_bundle(onto, 1)
    assert [c.name for c in bundle.inference_concepts] == ["Informing"]


def test_same_effective_labels_same_content(car_ontology):
    bundle_3, _ = compile_bundle(car_ontology, 3)
    bundle_9, _ = compile_bundle(car_ontology, 9)
    assert bundle_3.snapshot_time != bundle_9.snapshot_time
    assert bundle_3._replace(snapshot_time=9) == bundle_9


def test_snapshot_before_labels_warns_c1(car_ontology):
    bundle, warnings = compile_bundle(car_ontology, 0)
    assert [w.code for w in warnings] == ["C1"]
    # Concept extraction is empty; definition-derived plays-links remain.
    assert bundle.task_concepts == ()
    assert bundle.inference_concepts == ()
    assert bundle.domain_concepts == ()
    assert bundle.domain_relations == ()


def test_compile_refused_on_errors():
    onto, _ = load_source(
        "concept EmptyFuelTank specializes STV\nlabel Task EmptyFuelTank at 1\n")
    with pytest.raises(CompileRefusedError) as excinfo:
        compile_bundle(onto, 1)
    assert [d.code for d in excinfo.value.diagnostics] == ["A7"]


def test_compile_refusal_carries_every_finding():
    onto, _ = load_source("instance doc1 : Document\n"
                          "concept EmptyFuelTank specializes STV\n"
                          "label Task EmptyFuelTank at 3\n")
    with pytest.raises(CompileRefusedError) as excinfo:
        compile_bundle(onto, 3)
    assert [(d.code, d.severity.value) for d in excinfo.value.diagnostics] == [
        ("Ad35", "warning"), ("A7", "error")]


def test_compile_returns_validation_warnings_sorted_with_c1():
    onto, _ = load_source("instance doc1 : Document\n"
                          "concept Diagnosis specializes Reasoning\n"
                          "label Task Diagnosis at 1\n")
    _, warnings = compile_bundle(onto, 0)
    assert [w.code for w in warnings] == ["C1", "Ad35"]
    assert warnings == sort_diagnostics(warnings)
    assert compile_bundle(onto, 1)[1] == [w for w in warnings if w.code == "Ad35"]


def test_validator_compiler_agreement():
    sources = {
        "clean": "concept Think specializes Reasoning\nlabel Task Think at 1\n",
        "broken": "concept Tank specializes STV\nlabel Task Tank at 1\n",
    }
    for text in sources.values():
        onto, _ = load_source(text)
        errors = [d for d in validate(onto) if d.severity.value == "error"]
        if errors:
            with pytest.raises(CompileRefusedError):
                compile_bundle(onto, 1)
        else:
            compile_bundle(onto, 1)


def test_domain_relations_between_domain_concepts():
    onto, _ = load_source(
        "concept Engine specializes POB\n"
        "concept FuelTank specializes POB\n"
        "relation feeds signature (FuelTank, Engine)\n"
        "label DomainConcept Engine at 1\n"
        "label DomainConcept FuelTank at 1\n")
    bundle, _ = compile_bundle(onto, 1)
    assert [r.name for r in bundle.domain_relations] == ["feeds"]
    assert [c.name for c in bundle.domain_concepts] == ["Engine", "FuelTank"]


def test_relation_built_without_a_line_stays_out_of_the_domain_model():
    """Line 0 marks a kernel declaration, so a relation built in code
    without a line is not the user's and joins no domain model."""
    text = ("concept Engine specializes POB\n"
            "concept FuelTank specializes POB\n"
            "relation feeds signature (FuelTank, Engine)\n"
            "label DomainConcept Engine at 1\n"
            "label DomainConcept FuelTank at 1\n")
    decls, _ = parse(text, "<test>")
    onto, diags = merge_with_kernel(
        [*decls, RelationDecl("pumps", (("FuelTank",), ("Engine",)))], SourceText("<test>", text))
    assert diags == []
    bundle, _ = compile_bundle(onto, 1)
    assert [r.name for r in bundle.domain_relations] == ["feeds"]


def test_domain_parents_restricted_to_model_members():
    onto, load_diags = load_source(
        "concept Vehicle specializes POB\n"
        "concept Car specializes Vehicle\n"
        "concept Diagnosis specializes Reasoning\n"
        "role Evidence = data of Diagnosis\n"
        "role Verdict = result of Diagnosis\n"
        "concept Sample = Model and Evidence\n"
        "label DomainConcept Vehicle at 1\n"
        "label DomainConcept Car at 1\n"
        + "".join(f"label DomainConcept {c} at 1\n"
                  for c in ("Evidence", "Data", "Model", "Sample", "Verdict", "Result")))
    bundle, diags = compile_bundle(onto, 1)
    assert load_diags == [] and diags == []
    by_name = {c.name: c for c in bundle.domain_concepts}
    assert by_name["Car"].parents == ("Vehicle",)
    assert by_name["Vehicle"].parents == ()  # POB is not in the domain model
    # a role's Data or Result is implied by its definition and not listed,
    # though it is in the domain model; a conjunction's operands are listed
    assert by_name["Evidence"].parents == () and by_name["Verdict"].parents == ()
    assert by_name["Sample"].parents == ("Evidence", "Model")


def test_conservation_no_invented_names(car_ontology):
    bundle, _ = compile_bundle(car_ontology, 3)
    names = {c.name for c in bundle.task_concepts}
    names |= {c.name for c in bundle.domain_concepts}
    names |= {c.name for c in bundle.inference_concepts}
    names |= {p.type_concept for p in bundle.plays} | {p.role for p in bundle.plays}
    for task in bundle.task_concepts:
        names |= {r.name for r in task.inputs} | {r.name for r in task.outputs}
    assert names <= set(car_ontology.concepts)


def test_emit_is_deterministic_and_idempotent(calibration_ontology, tmp_path):
    bundle, _ = compile_bundle(calibration_ontology, 2)
    first_dir = tmp_path / "first"
    emit_bundle(bundle, first_dir)
    first = {name: (first_dir / name).read_bytes() for name in BUNDLE_FILES}
    emit_bundle(bundle, first_dir)  # rewrite in place
    again = {name: (first_dir / name).read_bytes() for name in BUNDLE_FILES}
    assert first == again
    second_dir = tmp_path / "second"
    emit_bundle(compile_bundle(calibration_ontology, 2)[0], second_dir)
    second = {name: (second_dir / name).read_bytes() for name in BUNDLE_FILES}
    assert first == second


def test_emitted_json_is_canonical(calibration_ontology, tmp_path):
    bundle, _ = compile_bundle(calibration_ontology, 2)
    emit_bundle(bundle, tmp_path)
    for name in BUNDLE_FILES:
        raw = (tmp_path / name).read_text(encoding="utf-8")
        assert raw.endswith("\n") and "\r" not in raw
        doc = json.loads(raw)
        assert raw == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert doc["schema_version"] == "1"


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)


def _bundle_of(text: str, snapshot_time: int) -> ModelBundle:
    """A bundle that carries `text` in every string field of every record
    kind, next to records whose lists and annotations are empty."""
    role = RoleRecord(text, "data", text, (text, "B" + text))
    bare_role = RoleRecord("R" + text, "result", "C", ())
    annotations = tuple((axis, text) for axis in ("é", "e", "Z", "\n", '"', text + "x"))
    return ModelBundle(
        snapshot_time=snapshot_time,
        domain_concepts=(BundleConcept(text, (text, "P"), annotations),
                         BundleConcept("D" + text, (), ())),
        domain_relations=(DomainRelation(text, text + "|A", "A|" + text, True),
                          DomainRelation("r" + text, "A", "B", False)),
        plays=(PlaysLink(text, "x" + text),),
        inference_concepts=(BundleConcept(text, (), annotations, inputs=(role, bare_role),
                                          outputs=(bare_role,)),
                            BundleConcept("I" + text, (), (), inputs=(), outputs=())),
        task_concepts=(BundleConcept(text, (text,), (), inputs=(), outputs=(role,),
                                     methods=(text, "m")),
                       BundleConcept("T" + text, (), (), inputs=(), outputs=(), methods=())),
    )


def _documents_of(bundle: ModelBundle) -> dict[str, dict]:
    """The documents of a hand-built bundle, field by field, as dicts."""
    def concept(c: BundleConcept) -> dict:
        doc = {"name": c.name, "parents": list(c.parents), "annotations": dict(c.annotations)}
        if c.inputs is not None or c.outputs is not None:
            doc["io"] = {"inputs": [role(r) for r in c.inputs or ()],
                         "outputs": [role(r) for r in c.outputs or ()]}
        if c.methods is not None:
            doc["methods"] = list(c.methods)
        return doc

    def role(r: RoleRecord) -> dict:
        return {"name": r.name, "mode": r.mode, "reasoning_concept": r.reasoning_concept,
                "players": list(r.players)}

    common = {"schema_version": "1", "snapshot_time": bundle.snapshot_time}
    return {
        "domain.json": {
            **common,
            "concepts": [concept(c) for c in bundle.domain_concepts],
            "relations": [{"name": r.name, "domain": r.domain, "range": r.range,
                           "temporal": r.temporal} for r in bundle.domain_relations],
            "plays": [{"type": p.type_concept, "role": p.role} for p in bundle.plays],
        },
        "inference.json": {**common, "concepts": [concept(c) for c in bundle.inference_concepts]},
        "task.json": {**common, "concepts": [concept(c) for c in bundle.task_concepts]},
    }


def _assert_written_equal_json_dumps(documents, written):
    """The files `emit_bundle` wrote hold `documents` as `json.dumps` renders them."""
    assert [path.name for path in written] == list(documents) == list(BUNDLE_FILES)
    for path in written:
        assert path.read_text(encoding="utf-8") == _dumps(documents[path.name]) + "\n", path.name


def _scalars(value) -> list:
    """The dict keys and the leaves of a JSON value."""
    if isinstance(value, dict):
        return [x for key, item in value.items() for x in [key, *_scalars(item)]]
    if isinstance(value, list):
        return [x for item in value for x in _scalars(item)]
    return [value]


@pytest.mark.parametrize("value", [
    {}, [], {"a": {}, "b": [], "c": [[], {}, [[]]]}, [{}], [[]],
    True, False, [True, False, 0], {"t": True, "f": False},
    10 ** 100, -(10 ** 100), 0, -1,
    "", 'a "quoted" word', "back\\slash and /slash",
    "".join(chr(c) for c in range(32)) + "\x7f",
    "ünïcödé ☃ 𝄞 \u2028\u2029 \ufeff",
    {"z": 1, "a": [1, "x", {"k": True}], "M": {"nested": {"deeper": []}}},
    {"é": 1, "e": 2, "Z": 3, "\n": 4, '"': 5},
])
def test_canonical_json_equals_json_dumps(value, tmp_path):
    """Each string and each int of `value` goes into every record field of
    its type; every bundle also holds both booleans and empty lists."""
    scalars = _scalars(value)
    texts = [x for x in scalars if isinstance(x, str)] or [""]
    times = [x for x in scalars if type(x) is int] or [0]
    for i, text in enumerate(texts):
        for j, time in enumerate(times):
            bundle = _bundle_of(text, time)
            _assert_written_equal_json_dumps(_documents_of(bundle),
                                             emit_bundle(bundle, tmp_path / f"{i}-{j}"))


def test_emit_renders_each_role_record_once(tmp_path, monkeypatch):
    class CountingTemplate(str):
        def __mod__(self, values):
            rendered.append(values)
            return str.__mod__(self, values)

    monkeypatch.setattr(bundle_module, "_ROLE", CountingTemplate(bundle_module._ROLE))
    onto = random_role_model(3)
    bundle = compile_bundle(onto, 3)[0]
    records = [r for c in bundle.inference_concepts + bundle.task_concepts
               for r in c.inputs + c.outputs]
    assert len(records) > len(set(records)) > 1  # records recur under several concepts
    for _ in range(2):  # once per call
        rendered: list = []
        _assert_written_equal_json_dumps(reference_documents(onto, 3),
                                         emit_bundle(bundle, tmp_path))
        assert len(rendered) == len(set(rendered)) == len(set(records))


_RELATIONS_SOURCE = (
    "concept Engine specializes POB\n"
    "concept FuelTank specializes POB\n"
    "concept Pump specializes POB\n"
    "relation feeds signature (FuelTank | Pump, Engine)\n"
    "relation drains signature (Engine, FuelTank) temporal\n"
    "concept Diagnosis specializes Reasoning\n"
    "role Finding = result of Diagnosis\n"
    "concept CarFinding = Model and Finding\n"
    "label DomainConcept Engine at 1\n"
    "label DomainConcept FuelTank at 1\n"
    "label DomainConcept Pump at 2\n"
    "label Task Diagnosis at 1\n")


def test_emitted_bundles_equal_json_dumps(tmp_path, monkeypatch):
    """What `compile_bundle` and `emit_bundle` write for a model equals the
    reference compile of that model; a hand-built bundle, whose fields no
    model produces, is written as its fields read."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import families

    models = []  # (ontology, snapshot times)
    for path in clean_corpus_files():
        onto, _ = load_source(path.read_text(encoding="utf-8"))
        models.append((onto, (0, onto.max_label_time())))
        golden = CORPUS / "golden" / path.stem
        if golden.is_dir():  # `okc compile` wrote the golden at the latest time
            _assert_written_equal_json_dumps(
                reference_documents(onto, onto.max_label_time()),
                [golden / name for name in BUNDLE_FILES])
    models += [(random_role_model(seed), (3,)) for seed in range(30)]
    models.append((load_source(families.taxonomy_file(1, n=200).text)[0], (0, 4, 8)))
    onto, _ = load_source(_RELATIONS_SOURCE)
    with_relations = [compile_bundle(onto, time)[0] for time in (0, 2, 10 ** 20)]
    assert [len(b.domain_relations) for b in with_relations] == [0, 2, 2]
    assert {r.temporal for r in with_relations[1].domain_relations} == {True, False}
    assert "FuelTank|Pump" in {r.domain for r in with_relations[1].domain_relations}
    assert with_relations[1].plays
    models.append((onto, (0, 2, 10 ** 20)))
    onto, _ = load_source(USER_RELATIONS_SOURCE)
    assert validate(onto) == []
    user = compile_bundle(onto, 3)[0]
    assert {r.domain != r.range for r in user.domain_relations} == {True, False}
    assert {r.temporal for r in user.domain_relations} == {True, False}
    assert any("|" in r.domain + r.range for r in user.domain_relations)
    assert len(user.plays) == 2 and len(user.task_concepts[0].inputs) == 1
    models.append((onto, range(5)))
    for i, (onto, times) in enumerate(models):
        for time in times:
            bundle = compile_bundle(onto, time)[0]
            _assert_written_equal_json_dumps(reference_documents(onto, time),
                                             emit_bundle(bundle, tmp_path / f"{i}-{time}"))
    hand_built = [_bundle_of(text, time) for text in ("", "ü \u2028\\\"") for time in (0, 2 ** 70)]
    for i, bundle in enumerate(hand_built):
        _assert_written_equal_json_dumps(_documents_of(bundle),
                                         emit_bundle(bundle, tmp_path / f"hand-built-{i}"))


def test_emission_stays_small_and_exact(tmp_path, monkeypatch):
    """Emission writes each concept's text as it renders it and keeps only
    one text per role record, so its memory stays a small share of the
    bundle's size although every role record recurs under many concepts."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import families

    onto, _ = load_source(families.taxonomy_file(1, n=800).text)
    bundle = compile_bundle(onto, onto.max_label_time())[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        written = emit_bundle(bundle, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * sum(path.stat().st_size for path in written)
    _assert_written_equal_json_dumps(reference_documents(onto, onto.max_label_time()), written)


def test_negative_snapshot_rejected(car_ontology):
    with pytest.raises(ValueError):
        compile_bundle(car_ontology, -1)
