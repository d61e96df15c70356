"""The corpus, read from its layout.

`corpus/<stem>.oks` has no findings, `corpus/negative/<code>_<what>.oks`
emits exactly `<code>`, and `corpus/golden/<stem>/` is the golden bundle
of `corpus/<stem>.oks`.  A file that breaks the layout fails a test here
rather than going unchecked.

Regenerate the golden bundles only when a bundle change is intended; every
file rewritten is logged:

    PYTHONPATH=src python tests/test_corpus.py
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from helpers import (
    BUNDLE_FILES,
    CORPUS,
    all_codes,
    check_source,
    clean_corpus_files,
    corpus_source,
    golden_dirs,
    negative_code,
    negative_corpus_files,
)

from okc.cli import main


def regenerate_goldens(corpus: Path, log=print) -> list[Path]:
    """`okc compile` each `corpus/<stem>.oks` into `corpus/golden/<stem>/`."""
    written: list[Path] = []
    for golden in golden_dirs(corpus):
        model = corpus / f"{golden.name}.oks"
        if main(["compile", str(model), "--out", str(golden)]) != 0:
            raise RuntimeError(f"{model}: okc compile did not exit cleanly")
        for path in (golden / name for name in BUNDLE_FILES):
            log(f"regenerated {path}")
            written.append(path)
    return written


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


@pytest.mark.parametrize("path", clean_corpus_files(), ids=lambda p: p.stem)
def test_positive_corpora_have_zero_findings(path):
    diags = check_source(path.read_text(encoding="utf-8"), str(path))
    assert diags == [], [d.render() for d in diags]


@pytest.mark.parametrize("path", negative_corpus_files(), ids=lambda p: p.stem)
def test_negative_corpora_emit_exactly_their_codes(path):
    diags = check_source(path.read_text(encoding="utf-8"), str(path))
    assert all_codes(diags) == {negative_code(path)}, [d.render() for d in diags]


def test_every_registered_file_exists():
    """The layout registers every negative case by its name: each stem
    starts with a registry code and `_`."""
    paths = negative_corpus_files()
    assert paths
    misnamed = [p.name for p in paths if negative_code(p) is None]
    assert misnamed == [], f"not named <code>_<what>.oks: {misnamed}"


def test_every_golden_directory_names_a_corpus_file():
    for golden in golden_dirs():
        assert (CORPUS / f"{golden.name}.oks").is_file(), golden


def test_golden_directories_exist_for_worked_examples():
    assert [golden.name for golden in golden_dirs()] == ["calibration", "car_diagnosis"]
    for golden in golden_dirs():
        for filename in BUNDLE_FILES:
            assert (golden / filename).is_file()


def test_regenerate_goldens_rewrites_them_byte_identically(tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    expected = [copy / "golden" / name / filename
                for name in ("calibration", "car_diagnosis") for filename in BUNDLE_FILES]
    for path in expected:
        path.unlink()
    lines: list[str] = []
    written = regenerate_goldens(copy, log=lines.append)
    assert written == expected
    assert lines == [f"regenerated {p}" for p in expected]
    for path in expected:
        assert path.read_bytes() == (CORPUS / path.relative_to(copy)).read_bytes(), path


if __name__ == "__main__":
    regenerate_goldens(CORPUS)
