"""Corpus registry: every entry is exercised; codes match exactly."""

from __future__ import annotations

import shutil

import pytest

from helpers import CORPUS, all_codes, check_source, corpus_source

import okc.corpus
from okc.bundle import BUNDLE_FILES
from okc.corpus import REGISTRY, regenerate_goldens


def test_load_car_diagnosis_entry():
    source = corpus_source("car_diagnosis")
    for name in ("Diagnosis", "EmptyFuelTank", "DiagnosisHypothesis",
                 "DiagnosisResult", "Hypothesis", "LowBatteryLevelComplaint",
                 "CarModel"):
        assert name in source
    assert "label Task Diagnosis at 1" in source
    assert "label DomainConcept EmptyFuelTank at 3" in source


def test_load_calibration_entry():
    source = corpus_source("calibration")
    for name in ("Calibrating", "CalibrationData", "Model", "ModelToCalibrate"):
        assert name in source
    assert "label FormalKnowledgeRole CalibrationData at 2" in source


@pytest.mark.parametrize("entry", [e for e in REGISTRY.values() if not e.expected_codes],
                         ids=lambda e: e.name)
def test_positive_corpora_have_zero_findings(entry):
    diags = check_source(corpus_source(entry.name), str(entry.path()))
    assert diags == [], [d.render() for d in diags]


@pytest.mark.parametrize("entry", [e for e in REGISTRY.values() if e.expected_codes],
                         ids=lambda e: e.name)
def test_negative_corpora_emit_exactly_their_codes(entry):
    diags = check_source(corpus_source(entry.name), str(entry.path()))
    assert all_codes(diags) == set(entry.expected_codes), [d.render() for d in diags]


def test_every_registered_file_exists():
    for entry in REGISTRY.values():
        assert entry.path().is_file(), entry.relative_path


def test_golden_directories_exist_for_worked_examples():
    for name in ("car_diagnosis", "calibration"):
        golden = REGISTRY[name].golden_path()
        assert golden is not None
        for filename in ("domain.json", "inference.json", "task.json"):
            assert (golden / filename).is_file()


def test_regenerate_goldens_rewrites_them_byte_identically(tmp_path, monkeypatch):
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    for name in ("car_diagnosis", "calibration"):
        for filename in BUNDLE_FILES:
            (copy / "golden" / name / filename).unlink()
    monkeypatch.setattr(okc.corpus, "corpus_root", lambda: copy)
    lines: list[str] = []
    written = regenerate_goldens(log=lines.append)
    expected = [copy / "golden" / name / filename
                for name in ("car_diagnosis", "calibration") for filename in BUNDLE_FILES]
    assert written == expected
    assert lines == [f"regenerated {p}" for p in expected]
    for path in expected:
        assert path.read_bytes() == (CORPUS / path.relative_to(copy)).read_bytes(), path
