"""CLI driver: exit codes, stream separation, formats, determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

from helpers import (
    BUNDLE_FILES,
    COLUMNS_CHECKS_SOURCE,
    COLUMNS_LOAD_SOURCE,
    CORPUS,
    REPO_ROOT,
    check_source,
    random_label_model,
    random_saturation_model,
    random_shared_model,
    r_up_chain_source,
    role_fan_in_source,
    shared_operand_source,
    statement_span,
    wide_disjointness_source,
)

from okc import cli, reasoner
from okc.checks import REGISTRY
from okc.cli import main
from okc.frontend import _tokenize_line, render
from okc.kernel import kernel_ontology


def run(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def test_check_clean_corpus_exits_zero():
    code, out, err = run("check", str(CORPUS / "car_diagnosis.oks"))
    assert (code, out, err) == (0, "", "")


def test_check_negative_corpus_exits_one_with_single_a7():
    code, out, err = run("check", str(CORPUS / "negative" / "a7_task_on_state.oks"))
    assert code == 1
    assert out == ""
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1 and "error[A7]" in lines[0]


def test_check_multiple_files():
    code, _, err = run("check", str(CORPUS / "car_diagnosis.oks"),
                       str(CORPUS / "negative" / "a7_task_on_state.oks"))
    assert code == 1 and "A7" in err


def test_warning_exit_codes():
    idle = str(CORPUS / "negative" / "ad35_idle_endurant.oks")
    code, _, err = run("check", idle)
    assert code == 0 and "warning[Ad35]" in err
    code, _, _ = run("check", idle, "--werror")
    assert code == 2


def test_json_format_findings(tmp_path):
    code, out, err = run("check", str(CORPUS / "negative" / "a7_task_on_state.oks"),
                         "--format", "json")
    assert code == 1 and out == ""
    findings = json.loads(err)
    assert len(findings) == 1
    f = findings[0]
    assert f["code"] == "A7" and f["severity"] == "error"
    assert set(f) == {"code", "severity", "message", "file", "line", "column", "subjects"}
    assert f["subjects"] == ["EmptyFuelTank"]
    # With no findings, stderr stays empty in either format, and the exit is 0.
    clean = str(CORPUS / "calibration.oks")
    for fmt in ("text", "json"):
        assert run("check", clean, "--format", fmt) == (0, "", ""), fmt
        assert run("compile", clean, "--out", str(tmp_path / fmt), "--format", fmt) == \
            (0, "", ""), fmt


def test_check_orders_findings_by_file_line_column_code_message_subjects(tmp_path):
    """Two files named in reverse order, with findings on the same line
    numbers and several codes per line: text and JSON list the findings
    sorted by (file, line, column, code, message, subjects)."""
    for name, concept, instance in (("a.oks", "Both", "x"), ("b.oks", "Pair", "y")):
        (tmp_path / name).write_text(
            f"concept {concept} specializes ED, PD\n"
            f"  instance {instance} : EV, POB\n"
            f"\tlabel Task {concept} at 1\n"
            f"label Inference {concept} at 1\n", encoding="utf-8")
    files = [str(tmp_path / "b.oks"), str(tmp_path / "a.oks")]
    code, out, err = run("check", *files, "--format", "json")
    assert (code, out) == (1, "")
    findings = json.loads(err)
    keys = [(f["file"], f["line"], f["column"], f["code"], f["message"], f["subjects"])
            for f in findings]
    assert keys == sorted(keys)
    assert [(os.path.basename(f), line, column, code)
            for f, line, column, code, _, _ in keys] == [
        (name, line, column, code) for name in ("a.oks", "b.oks") for line, column, code in (
            (1, 1, "W2"), (2, 3, "Ad35"), (2, 3, "W2"), (3, 2, "A7"), (3, 2, "L5"),
            (4, 1, "L2b"))]
    code, out, err = run("check", *files)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{f['file']}:{f['line']}:{f['column']}: {f['severity']}[{f['code']}] {f['message']}"
        for f in findings]


def test_finding_columns_start_at_the_statement(tmp_path):
    """Every finding on the column inputs of `tests/output_digests.py` is at
    the statement's first token, in text and JSON, on lines indented by
    spaces, tabs, and whitespace that only the token parser takes, and on
    line 1 after a BOM; in-process, its span is the statement's."""
    indents = set()
    for name, source, codes in (("load.oks", COLUMNS_LOAD_SOURCE, {"E1", "E3", "E5", "E6"}),
                                ("checks.oks", COLUMNS_CHECKS_SOURCE, {"W2", "S1", "A7"})):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        lines = path.read_text(encoding="utf-8-sig").split("\n")
        code, _, err = run("check", str(path), "--format", "json")
        findings = json.loads(err)
        assert code == 1 and codes <= {f["code"] for f in findings}, name
        assert 1 in {f["line"] for f in findings}, name
        for f in findings:
            expected = statement_span(lines[f["line"] - 1], f["line"], str(path))
            assert f["column"] == expected.column, (name, f)
            indents.update(lines[f["line"] - 1][:expected.column - 1])
        _, _, err = run("check", str(path))
        assert err.splitlines() == [
            f"{f['file']}:{f['line']}:{f['column']}: {f['severity']}[{f['code']}] {f['message']}"
            for f in findings], name
        for d in check_source("\n".join(lines), name):
            assert d.span == statement_span(lines[d.span.line - 1], d.span.line, name), d
    assert indents == {" ", "\t", "\x0c", "\x85", "\u3000"}


def test_compile_writes_three_files(tmp_path):
    out_dir = tmp_path / "build"
    code, out, err = run("compile", str(CORPUS / "calibration.oks"),
                         "--out", str(out_dir), "--at", "2")
    assert (code, out, err) == (0, "", "")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "domain.json", "inference.json", "task.json"]


def test_compile_defaults_to_max_label_time(tmp_path):
    code, _, _ = run("compile", str(CORPUS / "car_diagnosis.oks"),
                     "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "task.json").read_text())
    assert doc["snapshot_time"] == 3


def test_compile_refuses_on_errors(tmp_path):
    code, _, err = run("compile", str(CORPUS / "negative" / "a7_task_on_state.oks"),
                       "--out", str(tmp_path))
    assert code == 1 and "A7" in err
    assert not any(tmp_path.iterdir())


def test_compile_with_a_warning_writes_the_bundle(tmp_path):
    model = tmp_path / "idle.oks"
    model.write_text("instance doc1 : Document\n"
                     "concept Diagnosis specializes Reasoning\n"
                     "label Task Diagnosis at 1\n", encoding="utf-8")
    for flags, expected in (((), 0), (("--werror",), 2)):
        out_dir = tmp_path / f"build{expected}"
        code, out, err = run("compile", str(model), "--out", str(out_dir), *flags)
        assert (code, out) == (expected, "")
        [line] = err.splitlines()
        assert line.startswith(f"{model}:1:1: warning[Ad35]")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(BUNDLE_FILES)


def test_compile_refusal_prints_errors_and_warnings(tmp_path):
    model = tmp_path / "both.oks"
    model.write_text("instance doc1 : Document\n"
                     "concept EmptyFuelTank specializes STV\n"
                     "label Task EmptyFuelTank at 3\n", encoding="utf-8")
    out_dir = tmp_path / "build"
    code, out, err = run("compile", str(model), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert [line.split(" ", 2)[1] for line in err.splitlines()] == [
        "warning[Ad35]", "error[A7]"]
    code, out, err = run("compile", str(model), "--out", str(out_dir), "--format", "json")
    assert (code, out) == (1, "")
    assert [(f["code"], f["severity"]) for f in json.loads(err)] == [
        ("Ad35", "warning"), ("A7", "error")]
    assert not out_dir.exists()


def _old_bundle(out_dir):
    """`out_dir` with an earlier compile's domain.json and inference.json."""
    out_dir.mkdir()
    for name in ("domain.json", "inference.json"):
        (out_dir / name).write_text(f"old {name}\n", encoding="utf-8")
    return {name: (out_dir / name).read_bytes() for name in ("domain.json", "inference.json")}


def test_compile_refuses_a_target_that_is_not_a_file_before_writing(tmp_path):
    out_dir = tmp_path / "build"
    old = _old_bundle(out_dir)
    (out_dir / "task.json").mkdir()
    code, out, err = run("compile", str(CORPUS / "car_diagnosis.oks"), "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert err == f"okc: cannot write bundle file {out_dir / 'task.json'}: [Errno 21] Is a directory\n"
    assert {name: (out_dir / name).read_bytes() for name in old} == old
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(BUNDLE_FILES)


def test_compile_that_fails_writing_the_last_document_keeps_the_old_bundle(tmp_path, monkeypatch):
    from okc import bundle

    def open_then_fill_the_disk(path, *args, **kwargs):
        out = open(path, *args, **kwargs)
        if path.name.startswith(".task.json.tmp-"):
            out.write("{")

            def disk_full(lines):
                raise OSError(28, "No space left on device")
            out.writelines = disk_full
        return out

    monkeypatch.setattr(bundle, "open", open_then_fill_the_disk, raising=False)
    out_dir = tmp_path / "build"
    old = _old_bundle(out_dir)
    code, out, err = run("compile", str(CORPUS / "car_diagnosis.oks"), "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert err == (f"okc: cannot write bundle file {out_dir / 'task.json'}: "
                   f"[Errno 28] No space left on device\n")
    assert {name: (out_dir / name).read_bytes() for name in old} == old
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(old)


def test_compile_empty_snapshot_warns(tmp_path):
    code, _, err = run("compile", str(CORPUS / "calibration.oks"),
                       "--out", str(tmp_path), "--at", "0")
    assert code == 0 and "warning[C1]" in err


def test_compile_requires_out():
    code, _, err = run("compile", str(CORPUS / "calibration.oks"))
    assert code == 3 and "okc:" in err


def test_missing_file_is_usage_error():
    code, _, err = run("check", "no/such/file.oks")
    assert code == 3 and "okc:" in err


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv,expected,parsed", [
    (["check", str(CORPUS / "calibration.oks")], 0, 1),
    (["check", str(CORPUS / "negative" / "e3_dangling_parent.oks")], 1, 1),
    (["check"], 3, 0),                     # usage error
    (["check", "no/such/file.oks"], 3, 0),  # OSError
])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, collecting, argv, expected,
                                                   parsed):
    seen = []
    real_parse = cli.parse

    def parse(text, filename):
        seen.append(gc.isenabled())
        return real_parse(text, filename)

    monkeypatch.setattr(cli, "parse", parse)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(*argv)[0] == expected
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * parsed  # the command itself runs without the collector


def _cyclic_garbage(*argv) -> tuple[int, int]:
    """The exit code, and how many unreachable objects in reference cycles
    one command leaves behind."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = run(*argv)[0]
        return code, gc.collect()
    finally:
        if was:
            gc.enable()


def test_a_command_leaves_no_cyclic_garbage_on_a_small_or_a_large_model(tmp_path, monkeypatch):
    """`main` suspends the cyclic collector.  That is safe because a command
    leaves no garbage in reference cycles, on a 10-line model as on 6,000
    lines of P1s, of E3s or of a clean model.  Only building the argument
    parser, once per process, leaves some (argparse's help formatters)."""
    cli._build_parser()
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import families

    small = tmp_path / "small.oks"
    small.write_text("concept A specializes Model\nconcept B specializes A\n"
                     "instance a : A\ninstance b : B\nlabel DomainConcept A at 1\n"
                     "disjoint A Missing\n\n# note\nannotate A rigidity rigid\n"
                     "instance c : A\n", encoding="utf-8")
    syntax = tmp_path / "p1.oks"  # every line a P1
    syntax.write_text("".join(f"concept C{i} specializes\n" if i % 2 else f"fact R{i}(a, \n"
                              for i in range(6000)), encoding="utf-8")
    dangling = tmp_path / "e3.oks"  # every line an E3
    dangling.write_text("".join(f"instance x{i} : Missing{i}\n" if i % 2 else
                                f"concept C{i} specializes Gone{i}\n" for i in range(6000)),
                        encoding="utf-8")
    activities = families.activities_file(1, n=430)
    clean = tmp_path / "activities.oks"
    clean.write_text(activities.text, encoding="utf-8")
    assert len(activities.text.splitlines()) > 6000
    for argv, code in [(("check", str(small)), 1), (("check", str(syntax)), 1),
                       (("check", str(dangling)), 1),
                       (("check", str(syntax), str(dangling), str(clean)), 1),
                       (("check", str(clean)), 0),
                       (("compile", str(clean), "--out", str(tmp_path / "out")), 0),
                       (("explain", str(clean), activities.probe), 0),
                       (("check",), 3), (("check", "no/such/file.oks"), 3)]:
        assert _cyclic_garbage(*argv) == (code, 0), argv


def test_binary_input_does_not_crash(tmp_path):
    garbage = tmp_path / "garbage.oks"
    garbage.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run("check", str(garbage))
    assert code == 3 and "okc:" in err


def test_kernel_listing_matches_render():
    code, out, err = run("kernel")
    assert code == 0 and err == ""
    assert out == render(kernel_ontology())
    assert run("explain", "--kernel")[0] == 3


def test_explain_instance_trace():
    code, out, err = run("explain", str(CORPUS / "calibration.oks"), "m1")
    assert code == 0 and err == ""
    assert "memberships of m1:" in out
    assert "m1 : ModelToCalibrate  [D6]" in out


def test_explain_unknown_instance():
    code, _, err = run("explain", str(CORPUS / "calibration.oks"), "nobody")
    assert code == 3 and "nobody" in err


def test_explain_on_cyclic_taxonomy_reports_w1():
    code, out, err = run("explain",
                         str(CORPUS / "negative" / "w1_subsumption_cycle.oks"), "x")
    assert code == 1 and "error[W1]" in err and out == ""


def test_explain_prints_w1_findings_as_check_does(tmp_path):
    path = tmp_path / "two_cycles.oks"
    path.write_text("concept C specializes D\nconcept D specializes C\n"
                    "concept A specializes B\nconcept B specializes A\n"
                    "instance x : PT\n", encoding="utf-8")
    checked, explained = run("check", str(path)), run("explain", str(path), "x")
    assert checked[0] == explained[0] == 1 and checked[1] == explained[1] == ""
    assert explained[2] == checked[2]
    assert checked[2].splitlines()[0].endswith(":1:1: error[W1] subsumption cycle: C -> D")


def test_explain_without_arguments_is_usage_error():
    code, _, err = run("explain")
    assert code == 3


def test_identical_invocations_are_byte_identical(tmp_path):
    args = ("check", str(CORPUS / "car_diagnosis.oks"),
            str(CORPUS / "negative" / "a13_data_joins_late.oks"))
    assert run(*args) == run(*args)


def test_diagnostics_to_stderr_data_to_stdout():
    code, out, err = run("check", str(CORPUS / "negative" / "s1_pc_signature.oks"))
    assert out == "" and err != ""
    code, out, err = run("kernel")
    assert err == "" and out != ""


def test_installed_entry_point_subprocess(tmp_path):
    def invoke(*argv):
        return subprocess.run([sys.executable, "-m", "okc", *argv],
                              capture_output=True, text=True)

    result = invoke("check", str(CORPUS / "calibration.oks"))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    result = invoke("compile", str(CORPUS / "calibration.oks"),
                    "--out", str(tmp_path), "--at", "2")
    assert result.returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "domain.json", "inference.json", "task.json"]
    result = invoke("check", str(CORPUS / "negative" / "w1_subsumption_cycle.oks"))
    assert result.returncode == 1 and "error[W1]" in result.stderr


def test_leading_bom_checks_clean(tmp_path):
    source = (CORPUS / "car_diagnosis.oks").read_bytes()
    bommed = tmp_path / "bom.oks"
    bommed.write_bytes(b"\xef\xbb\xbf" + source)
    assert run("check", str(bommed)) == (0, "", "")


def test_leading_bom_keeps_line_one_columns(tmp_path):
    plain, bommed = tmp_path / "plain", tmp_path / "bom"
    plain.mkdir()
    bommed.mkdir()
    text = b"concept Broken specializes\n"
    (plain / "m.oks").write_bytes(text)
    (bommed / "m.oks").write_bytes(b"\xef\xbb\xbf" + text)
    code, _, err = run("check", str(plain / "m.oks"), "--format", "json")
    [expected] = json.loads(err)
    code_bom, _, err_bom = run("check", str(bommed / "m.oks"), "--format", "json")
    [found] = json.loads(err_bom)
    assert code == code_bom == 1
    assert found["code"] == "P1" and found["line"] == 1
    assert (found["line"], found["column"], found["message"]) == \
        (expected["line"], expected["column"], expected["message"])


def test_ten_thousand_deep_chain_checks_clean(tmp_path):
    # The leaf sorts first, so a depth-first closure would recurse 10,000 deep.
    depth = 10_000
    lines = [f"concept C{i:05d} specializes "
             f"{f'C{i + 1:05d}' if i + 1 < depth else 'Reasoning'}" for i in range(depth)]
    chain = tmp_path / "chain.oks"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("check", str(chain)) == (0, "", "")


def test_ten_thousand_relation_particularization_chain_checks_clean(tmp_path):
    # The relation that sorts first is the leaf of the chain.
    depth = 10_000
    lines = [f"relation R{i:05d} "
             f"{f'particularizes R{i + 1:05d} ' if i + 1 < depth else ''}signature (ED)"
             for i in range(depth)]
    chain = tmp_path / "chain.oks"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("check", str(chain)) == (0, "", "")


def test_ten_thousand_deep_anti_rigid_chain_reports_each_l6(tmp_path):
    # Every concept of the chain is anti-rigid and subsumes the rigid leaf.
    depth = 10_000
    lines = [f"concept C{i:05d} specializes "
             f"{f'C{i + 1:05d}' if i + 1 < depth else 'Reasoning'}" for i in range(depth)]
    lines += [f"annotate C{i:05d} rigidity anti-rigid" for i in range(1, depth)]
    lines.append("annotate C00000 rigidity rigid")
    chain = tmp_path / "chain.oks"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run("check", str(chain), "--format", "json")
    findings = json.loads(err)
    assert code == 1 and {f["code"] for f in findings} == {"L6"}
    assert sorted(f["subjects"] for f in findings) == \
        [[f"C{i:05d}", "C00000"] for i in range(1, depth)]


def test_ten_thousand_material_role_labels_report_each_l4(tmp_path):
    count = 10_000
    lines = ["role Formal = data of Reasoning",
             "annotate Formal rigidity anti-rigid",
             "annotate Formal dependence dependent",
             "annotate Formal identity none",
             "annotate Model rigidity rigid",
             "annotate Model identity carries",
             "label FormalKnowledgeRole Formal at 0"]
    for i in range(count):
        lines += [f"concept M{i:05d} = Model and Formal",
                  f"annotate M{i:05d} rigidity anti-rigid",
                  f"annotate M{i:05d} dependence dependent",
                  f"annotate M{i:05d} identity carries",
                  f"label MaterialKnowledgeRole M{i:05d} at {i % 2}"]
    model = tmp_path / "material.oks"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run("check", str(model), "--format", "json")
    findings = json.loads(err)
    # Labels at time 1 have no FormalKnowledgeRole subsumer at their time.
    assert code == 1 and {f["code"] for f in findings} == {"L4"}
    assert sorted(f["subjects"] for f in findings) == \
        [[f"M{i:05d}"] for i in range(1, count, 2)]


def assert_coded_outcomes(tmp_path, model: str, instance: str) -> dict:
    """check, compile and explain end in an exit code and registered codes."""
    outcomes = {}
    for argv in (("check", model, "--format", "json"),
                 ("compile", model, "--out", str(tmp_path / "out"), "--format", "json"),
                 ("explain", model, instance)):
        code, out, err = run(*argv)
        assert code in (0, 1, 2, 3), argv
        if argv[0] == "explain":
            codes = set(re.findall(r"(?:error|warning)\[(\w+)\]", err))
        else:
            codes = {f["code"] for f in json.loads(err)} if err else set()
        assert codes <= set(REGISTRY), (argv, codes)
        outcomes[argv[0]] = (code, out, err)
    return outcomes


def test_five_thousand_relation_r_up_chain_ends_in_exit_codes(tmp_path):
    # R-up derives 25 million facts from the 5,000 asserted on the lowest relation.
    model = tmp_path / "r_up_chain.oks"
    model.write_text(r_up_chain_source(5_000), encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "x00000")
    code, _, err = outcomes["check"]
    assert code == 0 and {f["code"] for f in json.loads(err)} == {"Ad35"}
    code, out, _ = outcomes["explain"]
    assert code == 0 and out.count("  [R-up] from ") == 4_999


def test_ten_thousand_participants_of_one_action(tmp_path):
    count = 10_000
    lines = ["concept Negotiating specializes AC", "instance act : Negotiating",
             "instance lead : APO", "fact isAgentOf(lead, act)", "fact PC(lead, act, 0)"]
    for i in range(count):
        lines += [f"instance p{i:05d} : {'APO' if i % 2 else 'Model'}",
                  f"fact PC(p{i:05d}, act, 0)"]
    model = tmp_path / "wide_action.oks"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "act")
    assert outcomes["check"] == (0, "", "")
    assert "act : Interaction  [D1] from act : AC, isAgentOf(lead, act), " \
        "p00001 : APO, PC(p00001, act, 0)" in outcomes["explain"][1]


def test_ten_thousand_children_of_one_concept(tmp_path):
    count = 10_000
    lines = ["concept Wide specializes Reasoning"]
    for i in range(count):
        lines += [f"concept W{i:05d} specializes Wide", f"instance w{i:05d} : W{i:05d}"]
    model = tmp_path / "wide.oks"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "w09999")
    assert outcomes["check"] == (0, "", "")
    assert outcomes["compile"][0] == 0
    assert "w09999 : Wide  [M-up] from w09999 : W09999" in outcomes["explain"][1]


def test_ten_thousand_disjoint_partners_of_one_concept(tmp_path):
    model = tmp_path / "wide_disjoint.oks"
    model.write_text(wide_disjointness_source(10_000), encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "c")
    code, _, err = outcomes["check"]
    [finding] = json.loads(err)
    assert code == 1 and finding["code"] == "W2"
    assert finding["subjects"] == ["C00000", "A", "B00000"]
    assert outcomes["compile"][0] == 1
    assert "c : A  [M-up] from c : C00001" in outcomes["explain"][1]


def test_four_thousand_conjunctions_over_one_shared_type(tmp_path):
    model = tmp_path / "shared_operand.oks"
    model.write_text(shared_operand_source(4_000), encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "m03999")
    assert outcomes["check"] == (0, "", "")
    assert outcomes["compile"][0] == 0
    assert "m03999 : C03999  [D6] from m03999 : Model, m03999 : Role03999\n" \
        in outcomes["explain"][1]


def test_four_thousand_data_roles_around_one_reasoning_instance(tmp_path):
    model = tmp_path / "fan_in.oks"
    model.write_text(role_fan_in_source(4_000), encoding="utf-8")
    outcomes = assert_coded_outcomes(tmp_path, str(model), "m03999")
    assert outcomes["check"] == (0, "", "")
    assert outcomes["compile"][0] == 0
    assert "m03999 : Role00000  [D5] from isDataOf(m03999, r), r : R00000\n" \
        in outcomes["explain"][1]


def test_crlf_file_with_a_bom_reads_like_the_lf_file(tmp_path):
    source = (CORPUS / "calibration.oks").read_bytes()
    assert b"\r" not in source
    model = tmp_path / "calibration.oks"
    model.write_bytes(b"\xef\xbb\xbf" + source.replace(b"\n", b"\r\n"))
    outcomes = assert_coded_outcomes(tmp_path, str(model), "m1")
    assert outcomes["check"] == (0, "", "")
    for name in BUNDLE_FILES:
        assert (tmp_path / "out" / name).read_bytes() == \
            (CORPUS / "golden" / "calibration" / name).read_bytes()
    assert outcomes["explain"] == run("explain", str(CORPUS / "calibration.oks"), "m1")


def test_check_and_compile_build_no_member_traces(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import families

    models = sorted(str(p) for p in CORPUS.rglob("*.oks"))
    for planned in (families.activities_file(1, n=40), *families.single_plants()):
        models.append(str(tmp_path / planned.name))
        (tmp_path / planned.name).write_text(planned.text, encoding="utf-8")
    out = tmp_path / "out"

    def outcomes() -> list:
        found = []
        for model in models:
            found.append(run("check", model, "--format", "json"))
            shutil.rmtree(out, ignore_errors=True)
            found.append(run("compile", model, "--out", str(out)))
            found.append({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {})
        return found

    expected = outcomes()

    def refuse(engine):
        raise AssertionError("member traces were built")

    monkeypatch.setattr(reasoner._Engine, "run", refuse)
    assert outcomes() == expected


def test_role_and_conjunction_of_the_same_names_are_one_e1(tmp_path):
    model = tmp_path / "m.oks"
    model.write_text("\n".join([
        "concept data specializes Reasoning",
        "concept X specializes Reasoning",
        "role N = data of X",
        "concept N = data and X",
    ]) + "\n", encoding="utf-8")
    code, _, err = run("check", str(model), "--format", "json")
    assert code == 1
    assert [(f["code"], f["line"], f["subjects"]) for f in json.loads(err)] == [
        ("E1", 4, ["N"])]


def test_particularization_tail_into_cycle_reports_every_walk(tmp_path):
    model = tmp_path / "m.oks"
    model.write_text("\n".join([
        "relation a particularizes b signature (ED)",
        "relation b particularizes c signature (ED)",
        "relation c particularizes b signature (ED)",
        "relation d particularizes a signature (ED)",
        "relation e signature (ED)",
        "relation f particularizes e signature (ED)",
    ]) + "\n", encoding="utf-8")
    code, _, err = run("check", str(model), "--format", "json")
    assert code == 1
    found = [(f["code"], f["line"], f["message"], f["subjects"]) for f in json.loads(err)]
    assert found == [
        ("E7", 1, "relation 'a' particularizes into the cycle through 'b'", ["a", "b"]),
        ("E7", 2, "particularization cycle through 'b'", ["b", "c"]),
        ("E7", 4, "relation 'd' particularizes into the cycle through 'b'", ["d", "b"]),
    ]


@pytest.mark.parametrize("shape", ["tail", "cycle"])
def test_particularization_findings_grow_linearly(tmp_path, shape):
    sizes = {}
    for n in (1000, 2000):
        if shape == "tail":  # r0 -> r1 -> ... -> r(n-1) -> x <-> y
            lines = [f"relation r{i} particularizes r{i + 1} signature (ED)"
                     for i in range(n - 1)]
            lines += [f"relation r{n - 1} particularizes x signature (ED)",
                      "relation x particularizes y signature (ED)",
                      "relation y particularizes x signature (ED)"]
        else:  # r0 -> r1 -> ... -> r(n-1) -> r0
            lines = [f"relation r{i} particularizes r{(i + 1) % n} signature (ED)"
                     for i in range(n)]
        model = tmp_path / f"m{n}.oks"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run("check", str(model), "--format", "json")
        assert code == 1
        found, sizes[n] = json.loads(err), len(err)
        assert {f["code"] for f in found} == {"E7"}
        cycles = [f for f in found if f["message"].startswith("particularization cycle")]
        assert len(cycles) == 1
        tails = [f for f in found if f not in cycles]
        if shape == "tail":
            assert cycles[0]["subjects"] == ["x", "y"]
            assert len(tails) == n
            assert all(len(f["subjects"]) <= 2 for f in tails)
        else:
            assert cycles[0]["subjects"] == [f"r{i}" for i in range(n)]
            assert tails == []
    assert sizes[2000] <= 2.1 * sizes[1000]


@pytest.mark.parametrize("statement, digits, int_limit", [
    ("label Task Diagnosis at {n}", 5000, None),
    ("fact PRE(act, {n})", 5000, None),
    ("label Task Diagnosis at {n}", 1000, 640),
    ("fact PRE(act, {n})", 1000, 640),
], ids=["label Task Diagnosis at {n}", "fact PRE(act, {n})",
        "label under int() limit 640", "fact under int() limit 640"])
def test_huge_time_point_is_one_p1(tmp_path, statement, digits, int_limit):
    model = tmp_path / "m.oks"
    model.write_text("concept Diagnosis specializes Reasoning\ninstance act : Diagnosis\n"
                     + statement.format(n="7" * digits) + "\n", encoding="utf-8")
    if int_limit is None:
        code, out, err = run("check", str(model), "--format", "json")
    else:
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int() digit limit")
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(int_limit)
        try:
            code, out, err = run("check", str(model), "--format", "json")
        finally:
            sys.set_int_max_str_digits(default)
    [finding] = json.loads(err)
    assert (code, out) == (1, "")
    assert (finding["code"], finding["line"], finding["message"]) == \
        ("P1", 3, "time point too large")


def test_long_w1_cycle_message_is_bounded(tmp_path):
    size = 10_000
    model = tmp_path / "cycle.oks"
    model.write_text("".join(f"concept K{i:05d} specializes K{(i + 1) % size:05d}\n"
                             for i in range(size)), encoding="utf-8")
    code, _, err = run("check", str(model), "--format", "json")
    [finding] = json.loads(err)
    assert code == 1 and finding["code"] == "W1"
    members = " -> ".join(f"K{i:05d}" for i in range(10))
    assert finding["message"] == f"subsumption cycle: {members} -> ... (10000 concepts)"
    assert finding["subjects"] == [f"K{i:05d}" for i in range(size)]


def test_short_w1_cycle_message_lists_every_member():
    code, _, err = run("check", str(CORPUS / "negative" / "w1_subsumption_cycle.oks"))
    assert code == 1
    assert err.endswith("error[W1] subsumption cycle: Alpha -> Beta\n")


def _mutants(rng: random.Random, lines: list[str], count: int):
    """Token and line deletions, duplications and swaps, plus huge numerals."""
    for _ in range(count):
        lines_now = list(lines)
        i = rng.randrange(len(lines_now))
        tokens = _tokenize_line(lines_now[i])
        op = rng.choice(("delete line", "duplicate line", "swap lines", "delete token",
                         "duplicate token", "swap tokens", "inflate numeral"))
        if op == "delete line":
            del lines_now[i]
        elif op == "duplicate line":
            lines_now.insert(i, lines_now[i])
        elif op == "swap lines":
            j = rng.randrange(len(lines_now))
            lines_now[i], lines_now[j] = lines_now[j], lines_now[i]
        elif tokens:
            texts = [t.text for t in tokens]
            k = rng.randrange(len(texts))
            if op == "delete token":
                del texts[k]
            elif op == "duplicate token":
                texts.insert(k, texts[k])
            elif op == "swap tokens":
                m = rng.randrange(len(texts))
                texts[k], texts[m] = texts[m], texts[k]
            else:
                numerals = [n for n, t in enumerate(tokens) if t.kind == "nat"] or [k]
                texts[rng.choice(numerals)] = "1" + "0" * 4999
            lines_now[i] = " ".join(texts)
        yield op, "\n".join(lines_now) + "\n"


@pytest.mark.parametrize("name", ["car_diagnosis.oks", "calibration.oks", "a4_a5_a6.oks",
                                  "negative/a13_data_joins_late.oks"])
def test_seeded_corpus_mutations_end_in_coded_diagnostics(tmp_path, name):
    lines = (CORPUS / name).read_text(encoding="utf-8").splitlines()
    rng = random.Random(name)
    model = tmp_path / "m.oks"
    for op, text in _mutants(rng, lines, 40):
        model.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        for argv in (("check", str(model)), ("compile", str(model), "--out", out)):
            code, _, err = run(*argv, "--format", "json")
            assert code in (0, 1, 2, 3), (op, argv)
            findings = json.loads(err) if err else []
            assert {f["code"] for f in findings} <= set(REGISTRY), (op, findings)


def _user_source(onto) -> str:
    """The model's own statements: its rendering without the kernel's lines."""
    kernel_lines = set(render(kernel_ontology()).splitlines())
    return "\n".join(line for line in render(onto).splitlines()
                     if line and line not in kernel_lines) + "\n"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Checks walk sets and dicts in hash order and `validate` sorts their
    findings, so processes with different string hashing print the same."""
    models = {"label5": random_label_model(5), "label15": random_label_model(15),
              "sat1": random_saturation_model(1), "sat17": random_saturation_model(17),
              "shared7": random_shared_model(7)}
    for name, onto in models.items():
        (tmp_path / f"{name}.oks").write_text(_user_source(onto), encoding="utf-8")
    generated = [str(tmp_path / f"{name}.oks") for name in models]
    corpus = sorted(str(p) for p in CORPUS.rglob("*.oks"))
    compiled = generated + [str(CORPUS / "calibration.oks"), str(CORPUS / "car_diagnosis.oks")]
    explained = [(generated[2], "x0"), (generated[4], "x00"),
                 (str(CORPUS / "calibration.oks"), "m1")]
    bundle = tmp_path / "bundle"
    src = str(REPO_ROOT / "src")

    def outputs(seed: int) -> list:
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

        def invoke(*argv):
            result = subprocess.run([sys.executable, "-m", "okc", *argv],
                                    capture_output=True, text=True, env=env)
            return result.returncode, result.stdout, result.stderr

        out = [invoke("check", *corpus, *generated, "--format", fmt) for fmt in ("text", "json")]
        for path in compiled:
            for fmt in ("text", "json"):
                shutil.rmtree(bundle, ignore_errors=True)
                result = invoke("compile", path, "--out", str(bundle), "--format", fmt)
                out.append((result, {p.name: p.read_bytes() for p in bundle.glob("*")}))
        out += [invoke("explain", path, instance) for path, instance in explained]
        return out

    first = outputs(0)
    assert first[0][0] == 1 and len(first[0][2].splitlines()) > 300
    # the two corpus models compile in both formats; the generated ones are refused
    assert sum(1 for (code, _, _), files in first[2:16] if code == 0 and files) == 4
    assert first == outputs(1)
