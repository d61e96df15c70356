"""Bundle compiler: effective labels, extraction rules, deterministic emission."""

from __future__ import annotations

import json

import pytest

from helpers import effective_labels_oracle, load_source, random_label_model

from okc.bundle import (
    BUNDLE_FILES,
    CompileRefusedError,
    compile_bundle,
    effective_labels,
    emit_bundle,
)
from okc.checks import validate
from okc.kernel import kernel_ontology


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
    assert bundle_3.content() == bundle_9.content()
    assert bundle_3.snapshot_time != bundle_9.snapshot_time


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


def test_domain_parents_restricted_to_model_members():
    onto, _ = load_source(
        "concept Vehicle specializes POB\n"
        "concept Car specializes Vehicle\n"
        "label DomainConcept Vehicle at 1\n"
        "label DomainConcept Car at 1\n")
    bundle, _ = compile_bundle(onto, 1)
    by_name = {c.name: c for c in bundle.domain_concepts}
    assert by_name["Car"].parents == ("Vehicle",)
    assert by_name["Vehicle"].parents == ()  # POB is not in the domain model


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


def test_negative_snapshot_rejected(car_ontology):
    with pytest.raises(ValueError):
        compile_bundle(car_ontology, -1)
