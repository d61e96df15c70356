"""Print one sha256 per (input file, command) of the okc command line.

    PYTHONPATH=src python tests/output_digests.py > digests.txt

The inputs are the corpus files (`corpus/*.oks`, `corpus/negative/*.oks`),
the seed-3 files of the three benchmark workloads, generated by
`perfbench/families.py`, and models from `tests/digest_inputs.py`:
  - shapes whose bitsets are wide or dense: wide disjointness, shared
    operand and role fan-in at n = 300, and a 2,000-deep chain;
  - user relations, which neither the corpus nor the workloads declare:
    the clean `USER_RELATIONS_SOURCE`, whose bundle lists relations and
    plays-links, and `particularization_source` seeds 0 and 1, whose
    particularization chains give S1 and S2 findings on user signatures;
  - rules D1 and D2, which derive nothing in the other inputs:
    `d1_source(1)`, whose probe `a1` is an Interaction by D1, and
    `tests/shared_model_1.oks`, the text of `random_shared_model(1)`,
    whose probe `x06` is a Subject by D2;
  - chained D5 and D6, where one trigger of the traced engine derives a
    membership that enables a later one: `D6_CHAIN_SOURCE` and
    `D5_CHAIN_SOURCE`, each with probe `x`;
  - columns: `COLUMNS_LOAD_SOURCE` (E1, E3, E5, E6) and
    `COLUMNS_CHECKS_SOURCE` (W2, S1, A7, Ad35), with findings on lines
    indented by spaces, tabs, form feed, U+0085 and U+3000, and on line 1
    after a BOM;
  - the token parser: `TOKEN_PARSER_SOURCE`, a clean model whose every
    line only the token parser reads, with probe `e1`, and `P1_SOURCE`, a
    P1 for each statement form and message;
  - finding paths the other inputs miss: `LOAD_FINDINGS_SOURCE` (E1 and E2
    across kinds, E3 on a parent relation, an annotation and two fact
    relations, E4 on `fact PRE(0)` and a self-disjointness, E7 on a cycle
    and its lead-in), `cycle_source(12)`, whose W1 message is cut at 10
    members, with probe `x`, `L4_SOURCE` (L4 on the material, Input
    and Output roles), and `REDECLARATION_SOURCE`, an identical and a
    differing re-declaration each of a role, a conjunction and an
    instance (E1 on each differing one).

Each file runs through `okc check` (text and `--format json`) and `okc
compile` (text and json); each file with a probe instance also runs
through `okc explain` on that probe, and `okc kernel` runs once.  A digest covers the exit code,
stdout, stderr and, for compile, the name and bytes of every bundle file.

Two checkouts print the same lines exactly when their outputs are
byte-identical, so compare the output of two runs with `diff`, under
several `PYTHONHASHSEED` values, or over the `src` of two checkouts: of
`okc` the script imports only `okc.cli.main`.  The name does not start
with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import families  # noqa: E402
from digest_inputs import (  # noqa: E402
    COLUMNS_CHECKS_SOURCE,
    COLUMNS_LOAD_SOURCE,
    D5_CHAIN_SOURCE,
    D6_CHAIN_SOURCE,
    L4_SOURCE,
    LOAD_FINDINGS_SOURCE,
    P1_SOURCE,
    REDECLARATION_SOURCE,
    TOKEN_PARSER_SOURCE,
    USER_RELATIONS_SOURCE,
    cycle_source,
    d1_source,
    deep_chain_source,
    particularization_source,
    role_fan_in_source,
    shared_operand_source,
    wide_disjointness_source,
)
from okc.cli import main  # noqa: E402

SEED = 3


def _inputs() -> list[tuple[str, str, str | None]]:
    """(relative path, text, probe instance or None) for every input file."""
    out = [(str(p.relative_to(ROOT)), p.read_text(encoding="utf-8"), None)
           for p in sorted(ROOT.glob("corpus/*.oks")) + sorted(ROOT.glob("corpus/negative/*.oks"))]
    for name, family in sorted(families.FAMILIES.items()):
        workload = family(SEED)
        for f in workload.files + workload.half:
            out.append((f"{name}/{f.name}", f.text, f.probe))
    shapes = [("wide_disjointness_300", wide_disjointness_source(300), "c"),
              ("shared_operand_300", shared_operand_source(300), "m00299"),
              ("role_fan_in_300", role_fan_in_source(300), "r"),
              ("deep_chain_2000", deep_chain_source(2000), "x")]
    out += [(f"shapes/{name}.oks", text, probe) for name, text, probe in shapes]
    relations = [("user_relations", USER_RELATIONS_SOURCE, "e1"),
                 ("particularization_0", particularization_source(0), "x0"),
                 ("particularization_1", particularization_source(1), "x0")]
    out += [(f"relations/{name}.oks", text, probe) for name, text, probe in relations]
    rules = [("d1_1", d1_source(1), "a1"),
             ("shared_1", (TESTS / "shared_model_1.oks").read_text(encoding="utf-8"), "x06"),
             ("d6_chain", D6_CHAIN_SOURCE, "x"), ("d5_chain", D5_CHAIN_SOURCE, "x")]
    out += [(f"rules/{name}.oks", text, probe) for name, text, probe in rules]
    out += [("columns/load.oks", COLUMNS_LOAD_SOURCE, None),
            ("columns/checks.oks", COLUMNS_CHECKS_SOURCE, None)]
    out += [("parser/tokens.oks", TOKEN_PARSER_SOURCE, "e1"),
            ("parser/p1.oks", P1_SOURCE, None),
            ("findings/load.oks", LOAD_FINDINGS_SOURCE, None),
            ("findings/cycle_12.oks", cycle_source(12), "x"),
            ("findings/l4.oks", L4_SOURCE, None),
            ("findings/redeclarations.oks", REDECLARATION_SOURCE, None)]
    return out


def _digest(argv: list[str], out_dir: str | None = None) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    h = hashlib.sha256(f"{code}\0{stdout.getvalue()}\0{stderr.getvalue()}".encode())
    if out_dir is not None:
        for path in sorted(Path(out_dir).iterdir()):
            h.update(f"\0{path.name}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def print_digests() -> None:
    inputs = _inputs()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # file names in the diagnostics stay relative
        for rel, text, probe in inputs:
            Path(rel).parent.mkdir(parents=True, exist_ok=True)
            Path(rel).write_text(text, encoding="utf-8")
            runs = [("check", ["check", rel], None),
                    ("check --format json", ["check", "--format", "json", rel], None)]
            for fmt in ("text", "json"):
                out = tempfile.mkdtemp(dir=work)
                runs.append((f"compile --format {fmt}",
                             ["compile", rel, "--out", out, "--format", fmt], out))
            if probe is not None:
                runs.append((f"explain {probe}", ["explain", rel, probe], None))
            for label, argv, out in runs:
                print(f"{_digest(argv, out)}  {rel}  {label}")
        print(f"{_digest(['kernel'])}  -  kernel")


if __name__ == "__main__":
    print_digests()
