"""Traceability table: every integrity-rule code maps to the artifact
mechanism that realizes it, with executable fixtures.

Mechanisms:

    kernel-edge      (child, parent) subsumption built into the kernel
    rule             a saturation rule code from the reasoner
    check            a validator check code from the registry

Each row carries at least one passing fixture, and rows marked
falsifiable carry at least one failing fixture.  Fixtures are either
corpus files (by stem) or inline model sources, with an
expectation the test suite executes:

    clean     validation reports no finding with the mapped check code
    emits     validation reports at least one finding with that code
    derives   saturation derives the given membership
    absent    saturation does not derive the given membership
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from okc.checks import _VALIDATOR_CHECKS
from okc.model import _record

# The saturation rules, as a trace's `Derivation.rule` names them.
RULE_CODES = ("M-up", "R-up", "D1", "D2", "D3", "D4", "D5", "D6")
# The validator's check codes, in the order `validate` runs them.
VALIDATOR_CODES: tuple[str, ...] = tuple(code for code, _ in _VALIDATOR_CHECKS)


@_record
class Fixture(NamedTuple):
    expect: str  # clean | emits | derives | absent
    corpus: Optional[str] = None
    source: Optional[str] = None
    instance: Optional[str] = None
    concept: Optional[str] = None


def _corpus_clean(name: str) -> Fixture:
    return Fixture("clean", corpus=name)


def _corpus_emits(name: str) -> Fixture:
    return Fixture("emits", corpus=name)


def _derives(instance: str, concept: str, *, corpus: str = None, source: str = None) -> Fixture:
    return Fixture("derives", corpus=corpus, source=source,
                   instance=instance, concept=concept)


def _absent(instance: str, concept: str, *, source: str) -> Fixture:
    return Fixture("absent", source=source, instance=instance, concept=concept)


@_record
class TraceRow(NamedTuple):
    code: str
    mechanism: tuple[str, ...]
    falsifiable: bool
    passing: tuple[Fixture, ...]
    failing: tuple[Fixture, ...] = ()
    note: str = ""


_TRANSFER_OK = """
concept Informing specializes Communication
label TransferFunction Informing at 1
"""

_SUBJECT_OK = """
instance prop1 : Assertion
instance idea1 : IdaConcept
fact hasForSubject(prop1, idea1)
"""

_SUBJECT_BAD_SIGNATURE = """
instance doc1 : Document
instance idea1 : IdaConcept
fact hasForSubject(doc1, idea1)
"""

_SUBJECT_NO_PROPOSITION = """
instance idea1 : IdaConcept
"""

_AFFECTED_WITNESSED = """
concept Calibrating specializes Reasoning
instance m1 : Model
instance calib1 : Calibrating
fact isAffectedBy(m1, calib1)
fact PC(m1, calib1, 0)
"""

_DATA_OF_EVENT = """
instance m1 : Model
instance ev1 : EV
fact isDataOf(m1, ev1)
"""

_INTERACTION_OK = """
concept Negotiating specializes AC
instance session1 : Negotiating
instance agent1 : APO
instance agent2 : APO
fact isAgentOf(agent1, session1)
fact PC(agent2, session1, 0)
fact PC(agent1, session1, 0)
"""

_INTERACTION_SOLO = """
concept Negotiating specializes AC
instance session1 : Negotiating
instance agent1 : APO
fact isAgentOf(agent1, session1)
fact PC(agent1, session1, 0)
"""

_PATIENT_ABSENT = """
instance m1 : Model
"""

_ROLE_NOT_COVERED = """
concept Calibrating specializes Reasoning
concept Troubleshooting specializes Reasoning
role CalibrationData = data of Calibrating
instance m1 : Model
instance run1 : Troubleshooting
fact isDataOf(m1, run1)
fact PRE(run1, 0)
fact PC(m1, run1, 0)
"""

_CONJUNCTION_HALF = """
concept Calibrating specializes Reasoning
role CalibrationData = data of Calibrating
concept ModelToCalibrate = Model and CalibrationData
instance m1 : Model
"""

_COMMUNICATION_INSTANCE = """
instance chat1 : Communication
"""

TABLE: tuple[TraceRow, ...] = (
    TraceRow("A1", ("kernel-edge", "Reasoning", "AC"), False,
             (_derives("diag1", "AC", corpus="car_diagnosis"),)),
    TraceRow("A2", ("kernel-edge", "Communication", "Interaction"), False,
             (_derives("chat1", "Interaction", source=_COMMUNICATION_INSTANCE),)),
    TraceRow("A3", ("check", "A3"), True,
             (_corpus_clean("car_diagnosis"),),
             (_corpus_emits("a3_reasoning_and_communication"),)),
    TraceRow("A4", ("check", "A7"), True,
             (_corpus_clean("a4_a5_a6"),),
             (_corpus_emits("a7_task_on_state"),),
             note="exemplar Task label, governed by the Task-label check"),
    TraceRow("A5", ("check", "L3"), True,
             (_corpus_clean("a4_a5_a6"),),
             (_corpus_emits("l3_role_missing_preconditions"),),
             note="exemplar role label, governed by the role preconditions"),
    TraceRow("A6", ("check", "L5"), True,
             (_corpus_clean("a4_a5_a6"),),
             (_corpus_emits("l5_task_and_inference_same_time"),),
             note="exemplar domain label, governed by label exclusivity"),
    TraceRow("A7", ("check", "A7"), True,
             (_corpus_clean("a4_a5_a6"), _corpus_clean("car_diagnosis")),
             (_corpus_emits("a7_task_on_state"),)),
    TraceRow("A8", ("check", "A8"), True,
             (Fixture("clean", source=_TRANSFER_OK),),
             (_corpus_emits("a8_transfer_on_reasoning"),)),
    TraceRow("A9", ("check", "S1"), True,
             (Fixture("clean", source=_SUBJECT_OK),),
             (Fixture("emits", source=_SUBJECT_BAD_SIGNATURE),)),
    TraceRow("A10", ("check", "S2"), True,
             (Fixture("clean", source=_AFFECTED_WITNESSED),),
             (_corpus_emits("s2_missing_participation_witness"),)),
    TraceRow("A11", ("rule", "R-up"), False,
             (_derives("m1", "Patient", corpus="calibration"),),
             note="data facts imply affection facts, exercised via D3 on the "
                  "derived fact"),
    TraceRow("A12", ("check", "S1"), True,
             (_corpus_clean("calibration"),),
             (Fixture("emits", source=_DATA_OF_EVENT),)),
    TraceRow("A13", ("check", "A13"), True,
             (_corpus_clean("calibration"), _corpus_clean("car_diagnosis")),
             (_corpus_emits("a13_data_joins_late"),)),
    TraceRow("D1", ("rule", "D1"), False,
             (_derives("session1", "Interaction", source=_INTERACTION_OK),),
             (_absent("session1", "Interaction", source=_INTERACTION_SOLO),)),
    TraceRow("D2", ("rule", "D2"), False,
             (_derives("idea1", "Subject", source=_SUBJECT_OK),),
             (_absent("idea1", "Subject", source=_SUBJECT_NO_PROPOSITION),)),
    TraceRow("D3", ("rule", "D3"), False,
             (_derives("complaint1", "Patient", corpus="car_diagnosis"),),
             (_absent("m1", "Patient", source=_PATIENT_ABSENT),)),
    TraceRow("D4", ("rule", "D4"), False,
             (_derives("m1", "Data", corpus="calibration"),),
             (_absent("m1", "Data", source=_PATIENT_ABSENT),)),
    TraceRow("D5", ("rule", "D5"), False,
             (_derives("m1", "CalibrationData", corpus="calibration"),),
             (_absent("m1", "CalibrationData", source=_ROLE_NOT_COVERED),)),
    TraceRow("D6", ("rule", "D6"), False,
             (_derives("m1", "ModelToCalibrate", corpus="calibration"),),
             (_absent("m1", "ModelToCalibrate", source=_CONJUNCTION_HALF),)),
    TraceRow("T1", ("kernel-edge", "Patient", "ED"), False,
             (_derives("complaint1", "ED", corpus="car_diagnosis"),)),
    TraceRow("T2", ("kernel-edge", "Data", "Patient"), False,
             (_derives("m1", "Patient", corpus="calibration"),)),
    TraceRow("T3", ("kernel-edge", "Data", "Content"), False,
             (_derives("m1", "Content", corpus="calibration"),)),
    TraceRow("Ad33", ("check", "S1"), True,
             (_corpus_clean("car_diagnosis"),),
             (_corpus_emits("s1_pc_signature"),)),
    TraceRow("Ad35", ("check", "Ad35"), True,
             (_corpus_clean("car_diagnosis"),),
             (_corpus_emits("ad35_idle_endurant"),)),
)

REQUIRED_CODES: tuple[str, ...] = (
    *(f"A{i}" for i in range(1, 14)),
    *(f"D{i}" for i in range(1, 7)),
    "T1", "T2", "T3", "Ad33", "Ad35",
)

BY_CODE: dict[str, TraceRow] = {row.code: row for row in TABLE}
