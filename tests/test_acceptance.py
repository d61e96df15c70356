"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion enforces its stated tolerance and time budget.
"""

from __future__ import annotations

import io
import json
import random
import time

from helpers import (
    BUNDLE_FILES,
    CORPUS,
    check_source,
    clean_corpus_files,
    corpus_source,
    engine_sets,
    load_source,
    naive_saturate,
    negative_corpus_files,
    ontology_content,
    random_loadable_model,
    random_saturation_model,
    random_taxonomy,
    reachability_oracle,
    round_trip,
    temporal_model,
    temporal_oracle,
)
from traceability import REQUIRED_CODES, RULE_CODES, TABLE, VALIDATOR_CODES

from okc.bundle import compile_bundle, emit_bundle
from okc.checks import REGISTRY, SIGNATURE_AXIOM, check_temporal_participation
from okc.cli import main
from okc.kernel import merge_with_kernel
from okc.model import Severity
from okc.reasoner import compute_closure, direct_supers, saturate


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] {detail}: PASS")


def test_criterion_1_kernel_self_consistency(tmp_path):
    started = time.monotonic()
    code, listing, err = run_cli("kernel")
    assert code == 0 and err == ""
    kernel_file = tmp_path / "kernel.oks"
    kernel_file.write_text(listing, encoding="utf-8")
    code, out, err = run_cli("check", str(kernel_file))
    assert (code, out, err) == (0, "", "")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"kernel round took {elapsed:.2f}s"
    report("C1", "kernel listing checks clean, exit 0")


def test_criterion_2_traceability():
    assert sorted(r.code for r in TABLE) == sorted(REQUIRED_CODES)
    by_code = {row.code: row for row in TABLE}
    for row in TABLE:
        kind = row.mechanism[0]
        if kind == "kernel-edge":
            from okc.kernel import kernel_ontology
            _, child, parent = row.mechanism
            assert parent in direct_supers(kernel_ontology().concepts[child])
        elif kind == "rule":
            assert row.mechanism[1] in RULE_CODES
        else:
            assert row.mechanism[1] in REGISTRY and row.mechanism[1] in VALIDATOR_CODES
        assert row.passing
        if row.falsifiable:
            assert row.failing
    # Reverse diff: every integrity rule an S1 message cites is mapped back to S1.
    for axiom in SIGNATURE_AXIOM.values():
        assert axiom in by_code, f"S1 cites unmapped {axiom}"
        assert by_code[axiom].mechanism == ("check", "S1"), axiom
    report("C2", f"{len(TABLE)} axiom codes map 1:1 onto rules/checks with fixtures")


def test_criterion_3_label_reproduction():
    base = corpus_source("a4_a5_a6")
    assert check_source(base) == []
    mutations = {
        "A7": ("label Task Diagnosis at 1", "label Task EmptyFuelTank at 1"),
        "L3": ("label FormalKnowledgeRole CalibrationData at 2",
               "label FormalKnowledgeRole EmptyFuelTank at 2"),
        "E3": ("label DomainConcept EmptyFuelTank at 3",
               "label DomainConcept MysteryConcept at 3"),
    }
    for expected_code, (before, after) in mutations.items():
        assert before in base
        diags = check_source(base.replace(before, after))
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert len(errors) == 1, [d.render() for d in errors]
        assert errors[0].code == expected_code
    report("C3", "three-label fixture clean; each mutation yields exactly its code")


def test_criterion_4_closure_oracle():
    started = time.monotonic()
    for seed in range(100):
        decls = random_taxonomy(seed, max_nodes=12)
        onto, diags = merge_with_kernel(decls)
        assert onto is not None, diags
        closure = compute_closure(onto)
        nodes = sorted(onto.concepts)
        edges = {(name, parent)
                 for name in nodes for parent in direct_supers(onto.concepts[name])}
        reach = reachability_oracle(nodes, edges)
        computed = {(d, a) for d in nodes for a in nodes if closure.subsumes(a, d)}
        assert computed == reach, seed
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"closure oracle took {elapsed:.2f}s"
    report("C4", f"100 random DAGs match brute-force reachability in {elapsed:.2f}s")


def test_criterion_5_saturation_oracle():
    started = time.monotonic()
    for seed in range(100):
        onto = random_saturation_model(seed)
        engine = engine_sets(onto, saturate(onto, compute_closure(onto)))
        oracle = naive_saturate(onto, random.Random(seed * 13 + 1))
        assert engine == oracle, seed
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"saturation oracle took {elapsed:.2f}s"
    report("C5", f"100 random models match the naive fixpoint in {elapsed:.2f}s")


def test_criterion_6_temporal_oracle():
    started = time.monotonic()
    universe = (0, 1, 2)
    subsets = [frozenset(s)
               for s in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))]
    fact_configs = [
        (("isDataOf", "m1"),),
        (("isResultOf", "m1"),),
        (("isDataOf", "m1"), ("isResultOf", "m1")),
        (("isDataOf", "m1"), ("isDataOf", "m2")),
    ]
    cases = 0
    for pre in subsets:
        for pc1 in subsets:
            for config in fact_configs:
                pc2_options = subsets if any(x == "m2" for _, x in config) else [frozenset()]
                for pc2 in pc2_options:
                    onto = temporal_model(pre, pc1, pc2, config)
                    diags = check_temporal_participation(
                        saturate(onto, compute_closure(onto)))
                    errors = {(d.code, d.subjects) for d in diags
                              if d.severity is Severity.ERROR}
                    for rel, x in config:
                        mode = "data" if rel == "isDataOf" else "result"
                        code = "A13" if mode == "data" else "R13"
                        pc = pc1 if x == "m1" else pc2
                        expected_fail = not temporal_oracle(set(pre), set(pc), mode)
                        assert ((code, (x, "d")) in errors) == expected_fail, (
                            pre, pc, config)
                    cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"temporal oracle took {elapsed:.2f}s"
    report("C6", f"{cases} exhaustive temporal cases agree with enumeration "
                 f"in {elapsed:.2f}s")


def test_criterion_7_golden_compile(tmp_path):
    started = time.monotonic()
    for name in ("car_diagnosis", "calibration"):
        onto, diags = load_source(corpus_source(name), str(CORPUS / f"{name}.oks"))
        assert onto is not None and diags == []
        bundle, warnings = compile_bundle(onto, onto.max_label_time())
        assert warnings == []
        out_dir = tmp_path / name
        emit_bundle(bundle, out_dir)
        emit_bundle(bundle, out_dir)  # idempotent re-run
        for filename in BUNDLE_FILES:
            produced = (out_dir / filename).read_bytes()
            golden = (CORPUS / "golden" / name / filename).read_bytes()
            assert produced == golden, f"{name}/{filename} differs from golden"
    car_task = json.loads((tmp_path / "car_diagnosis" / "task.json").read_text())
    assert car_task["concepts"][0]["name"] == "Diagnosis"
    assert car_task["concepts"][0]["io"]["outputs"][0]["name"] == "DiagnosisResult"
    car_domain = json.loads((tmp_path / "car_diagnosis" / "domain.json").read_text())
    assert [c["name"] for c in car_domain["concepts"]] == ["EmptyFuelTank"]
    cal_task = json.loads((tmp_path / "calibration" / "task.json").read_text())
    assert cal_task["concepts"][0]["io"]["inputs"][0]["name"] == "CalibrationData"
    cal_domain = json.loads((tmp_path / "calibration" / "domain.json").read_text())
    assert {"role": "ModelToCalibrate", "type": "Model"} in cal_domain["plays"]
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"golden compile took {elapsed:.2f}s"
    report("C7", f"both corpora compile byte-identical to goldens in {elapsed:.2f}s")


def test_criterion_8_round_trip():
    for name in ("car_diagnosis", "calibration"):
        onto, _ = load_source(corpus_source(name), str(CORPUS / f"{name}.oks"))
        assert ontology_content(round_trip(onto)) == ontology_content(onto)
    for seed in range(50):
        onto = random_loadable_model(seed)
        assert ontology_content(round_trip(onto)) == ontology_content(onto), seed
    report("C8", "parse-render identity on both corpora and 50 random models")


def test_criterion_9_cli_determinism(tmp_path):
    def full_run(out_root):
        results = []
        for path in clean_corpus_files() + negative_corpus_files():
            results.append(("check", path.stem, run_cli("check", str(path))))
        for name in ("car_diagnosis", "calibration"):
            out_dir = out_root / name
            results.append(("compile", name, run_cli(
                "compile", str(CORPUS / f"{name}.oks"), "--out", str(out_dir))))
            for filename in BUNDLE_FILES:
                results.append(("bytes", filename, (out_dir / filename).read_bytes()))
        return results

    first = full_run(tmp_path / "one")
    second = full_run(tmp_path / "two")
    assert first == second
    report("C9", "two consecutive full CLI runs are byte-identical")
