"""Validator: per-check behavior, determinism, kernel cleanliness."""

from __future__ import annotations

import random

import pytest

from helpers import (
    all_codes,
    check_source,
    error_codes,
    shared_temporal_model,
    temporal_model,
    temporal_oracle,
)

from okc.checks import REGISTRY, VALIDATOR_CODES, check_temporal_participation, validate
from okc.frontend import parse
from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import Severity
from okc.reasoner import compute_closure, saturate


def test_kernel_has_no_findings():
    assert validate(kernel_ontology()) == []


def test_pc_signature_error_cites_ad33():
    diags = check_source(
        "instance p1 : PD\ninstance e1 : PD\nfact PC(p1, e1, 0)\n")
    assert error_codes(diags) == ["S1"]
    assert "Ad33" in diags[0].message


def test_label_examples_from_registry():
    # Task on a Reasoning concept: no finding.
    assert check_source(
        "concept Diagnosis specializes Reasoning\nlabel Task Diagnosis at 1\n") == []
    # Task on a state concept: exactly the A7 error.
    diags = check_source(
        "concept EmptyFuelTank specializes STV\nlabel Task EmptyFuelTank at 3\n")
    assert error_codes(diags) == ["A7"]
    # A formal knowledge role with proper annotations: no finding.
    assert check_source(
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "label FormalKnowledgeRole CalibrationData at 2\n") == []


def test_material_role_example_is_clean(calibration_ontology):
    assert validate(calibration_ontology) == []


def test_material_role_requires_formal_subsumer_at_same_time():
    source = (
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "concept ModelToCalibrate = Model and CalibrationData\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "annotate ModelToCalibrate rigidity anti-rigid\n"
        "annotate ModelToCalibrate dependence dependent\n"
        "annotate ModelToCalibrate identity carries\n"
        "annotate Model rigidity rigid\n"
        "annotate Model identity carries\n"
        "label FormalKnowledgeRole CalibrationData at 2\n"
        "label MaterialKnowledgeRole ModelToCalibrate at 5\n")  # time mismatch
    diags = check_source(source)
    assert error_codes(diags) == ["L4"]
    assert "time 5" in diags[0].message


def test_material_role_requires_rigid_identity_type():
    source = (
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "concept ModelToCalibrate = Model and CalibrationData\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "annotate ModelToCalibrate rigidity anti-rigid\n"
        "annotate ModelToCalibrate dependence dependent\n"
        "annotate ModelToCalibrate identity carries\n"
        "label FormalKnowledgeRole CalibrationData at 2\n"
        "label MaterialKnowledgeRole ModelToCalibrate at 2\n")  # Model unannotated
    diags = check_source(source)
    assert error_codes(diags) == ["L4"]
    assert "rigid identity-carrying" in diags[0].message


def test_input_output_labels():
    base = (
        "concept Calibrating specializes Reasoning\n"
        "role In0 = data of Calibrating\n"
        "role Out0 = result of Calibrating\n"
        "annotate In0 rigidity anti-rigid\n"
        "annotate In0 dependence dependent\n"
        "annotate Out0 rigidity anti-rigid\n"
        "annotate Out0 dependence dependent\n")
    assert check_source(base + "label Input In0 at 1\nlabel Output Out0 at 1\n") == []
    diags = check_source(base + "label Input Out0 at 1\n")
    assert error_codes(diags) == ["L4"]
    diags = check_source(base + "label Output In0 at 1\n")
    assert error_codes(diags) == ["L4"]


def test_l5_same_family_same_time_only():
    base = "concept Think specializes Reasoning\n"
    diags = check_source(
        base + "label Task Think at 1\nlabel Inference Think at 1\n")
    assert error_codes(diags) == ["L5"]
    # Different times are fine: classifications change over time.
    assert check_source(
        base + "label Task Think at 4\nlabel Inference Think at 1\n") == []
    # Different families at one time are not L5 violations.
    diags = check_source(
        base + "label Task Think at 1\nlabel DomainConcept Think at 1\n")
    assert "L5" not in all_codes(diags)


def test_l6_antirigid_over_rigid():
    diags = check_source(
        "concept Stakeholder specializes NPOB\n"
        "annotate Stakeholder rigidity anti-rigid\n"
        "concept Auditor specializes Stakeholder\n"
        "annotate Auditor rigidity rigid\n")
    assert error_codes(diags) == ["L6"]
    # The other direction (rigid above anti-rigid) is the normal case.
    assert check_source(
        "concept Person specializes NPOB\n"
        "annotate Person rigidity rigid\n"
        "concept Student specializes Person\n"
        "annotate Student rigidity anti-rigid\n") == []


def test_w2_concept_and_instance_level():
    diags = check_source(
        "concept Flora specializes NPOB\nconcept Fauna specializes NPOB\n"
        "disjoint Flora Fauna\nconcept Chimera specializes Flora, Fauna\n")
    assert error_codes(diags) == ["W2"]
    diags = check_source(
        "concept Flora specializes NPOB\nconcept Fauna specializes NPOB\n"
        "disjoint Flora Fauna\ninstance x : Flora, Fauna\n")
    assert "W2" in error_codes(diags)


def test_a3_owns_reasoning_communication_instances():
    diags = check_source(
        "concept Chat specializes Communication\n"
        "concept Ponder specializes Reasoning\n"
        "instance x1 : Chat, Ponder\n")
    assert error_codes(diags) == ["A3"]


def test_w1_cycle_short_circuits_other_checks():
    diags = check_source(
        "concept Alpha specializes Beta\nconcept Beta specializes Alpha\n"
        "label Task Alpha at 1\n")
    assert all_codes(diags) == {"W1"}


def test_s2_witness_required_for_derived_affection():
    diags = check_source(
        "concept Calibrating specializes Reasoning\n"
        "instance m : Model\ninstance c : Calibrating\n"
        "fact isDataOf(m, c)\n")
    # isDataOf derives isAffectedBy; no PC fact witnesses it.
    assert "S2" in error_codes(diags)
    # The finding is grounded at the asserted data fact, not the derived one.
    s2 = next(d for d in diags if d.code == "S2")
    assert s2.span.line == 4


def test_user_annotation_conflicts_are_e6():
    diags = check_source(
        "concept Widget specializes NPOB\n"
        "annotate Widget rigidity rigid\n"
        "annotate Widget rigidity anti-rigid\n")
    assert error_codes(diags) == ["E6"]
    # The same axis re-set to the same value collapses silently.
    assert check_source(
        "concept Widget specializes NPOB\n"
        "annotate Widget rigidity rigid\n"
        "annotate Widget rigidity rigid\n") == []


# --- temporal participation ---------------------------------------------------


def temporal_codes(onto):
    facts = saturate(onto, compute_closure(onto))
    return check_temporal_participation(onto, facts)


@pytest.mark.parametrize("seed", range(20))
def test_temporal_check_on_shared_perdurants_matches_oracle(seed):
    onto, presence, participation, participants = shared_temporal_model(seed)
    per_perdurant = {}
    for _, m, d in participants:
        per_perdurant.setdefault(d, set()).add(m)
    assert min(len(ms) for ms in per_perdurant.values()) >= 2
    diags = temporal_codes(onto)
    expected = set()
    for rel, m, d in participants:
        mode = "data" if rel == "isDataOf" else "result"
        if not temporal_oracle(presence[d], participation[(m, d)], mode):
            expected.add(("A13" if mode == "data" else "R13", (m, d)))
    assert {(d.code, d.subjects) for d in diags
            if d.severity is Severity.ERROR} == expected
    assert {d.subjects for d in diags if d.severity is Severity.WARNING} == \
        {(d,) for d in per_perdurant if not presence[d]}


def test_a13_witness_found():
    onto = temporal_model({0, 1, 2}, {0, 1}, set(), [("isDataOf", "m1")])
    assert temporal_codes(onto) == []


def test_a13_no_witness():
    onto = temporal_model({0, 1, 2}, {1}, set(), [("isDataOf", "m1")])
    diags = temporal_codes(onto)
    assert error_codes(diags) == ["A13"]
    assert "presence time 0" in diags[0].message


def test_a13_vacuous_without_presence_record():
    onto = temporal_model(set(), {1}, set(), [("isDataOf", "m1")])
    diags = temporal_codes(onto)
    assert [d.code for d in diags] == ["A13"]
    assert diags[0].severity is Severity.WARNING


def test_r13_dual():
    onto = temporal_model({0, 1}, {1}, set(), [("isResultOf", "m1")])
    assert temporal_codes(onto) == []
    onto = temporal_model({0, 1}, {0}, set(), [("isResultOf", "m1")])
    assert error_codes(temporal_codes(onto)) == ["R13"]


@pytest.mark.parametrize("seed", range(30))
def test_temporal_checker_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    universe = (0, 1, 2)
    pre = {t for t in universe if rng.random() < 0.6}
    pc1 = {t for t in universe if rng.random() < 0.5}
    mode = rng.choice(["data", "result"])
    rel = "isDataOf" if mode == "data" else "isResultOf"
    onto = temporal_model(pre, pc1, set(), [(rel, "m1")])
    diags = temporal_codes(onto)
    failed = any(d.severity is Severity.ERROR for d in diags)
    assert failed == (not temporal_oracle(pre, pc1, mode)), (seed, pre, pc1, mode)


# --- whole-validator properties -------------------------------------------------


def test_validate_is_deterministic_across_declaration_orders():
    from helpers import CORPUS
    text = (CORPUS / "car_diagnosis.oks").read_text(encoding="utf-8")
    decls, _ = parse(text, "car")
    reference = None
    for seed in range(4):
        shuffled = decls[:]
        random.Random(seed).shuffle(shuffled)
        onto, _ = merge_with_kernel(shuffled)
        result = validate(onto)
        if reference is None:
            reference = result
        assert result == reference


def test_registry_is_closed_and_unique():
    assert len(set(REGISTRY)) == len(REGISTRY)
    for code in VALIDATOR_CODES:
        assert code in REGISTRY
    for code in ("P1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "C1"):
        assert code in REGISTRY


def test_validation_does_not_mutate_the_ontology(car_ontology):
    snapshot = car_ontology._snapshot()
    validate(car_ontology)
    assert car_ontology._snapshot() == snapshot
