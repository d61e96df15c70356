"""CLI driver: exit codes, stream separation, formats, determinism."""

from __future__ import annotations

import io
import json

from helpers import CORPUS

from okc.cli import main
from okc.frontend import render
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


def test_json_format_findings():
    code, out, err = run("check", str(CORPUS / "negative" / "a7_task_on_state.oks"),
                         "--format", "json")
    assert code == 1 and out == ""
    findings = json.loads(err)
    assert len(findings) == 1
    f = findings[0]
    assert f["code"] == "A7" and f["severity"] == "error"
    assert set(f) == {"code", "severity", "message", "file", "line", "column", "subjects"}
    assert f["subjects"] == ["EmptyFuelTank"]


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


def test_binary_input_does_not_crash(tmp_path):
    garbage = tmp_path / "garbage.oks"
    garbage.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run("check", str(garbage))
    assert code == 3 and "okc:" in err


def test_kernel_listing_matches_render():
    code, out, err = run("kernel")
    assert code == 0 and err == ""
    assert out == render(kernel_ontology())
    code, out2, _ = run("explain", "--kernel")
    assert code == 0 and out2 == out


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
    import subprocess
    import sys

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
