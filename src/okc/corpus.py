"""Registry over the shipped example models under `corpus/`.

Positive entries validate with zero findings and (where registered)
carry a golden bundle directory; negative entries are named by the
diagnostic code they must produce, and must produce exactly the
registered codes.  Golden bundles regenerate only through the explicit
update step (`python -m okc.corpus regen`), which logs every file it
rewrites.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .model import _record


@_record
class CorpusEntry(NamedTuple):
    name: str
    relative_path: str
    expected_codes: tuple[str, ...] = ()
    golden_dir: Optional[str] = None

    def path(self) -> Path:
        return corpus_root() / self.relative_path

    def golden_path(self) -> Optional[Path]:
        return corpus_root() / self.golden_dir if self.golden_dir else None


def corpus_root() -> Path:
    """The repository `corpus/` directory (next to the installed source tree)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "corpus"
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError("corpus/ directory not found above " + str(here))


_ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("car_diagnosis", "car_diagnosis.oks", (), "golden/car_diagnosis"),
    CorpusEntry("calibration", "calibration.oks", (), "golden/calibration"),
    CorpusEntry("a4_a5_a6", "a4_a5_a6.oks", ()),
    CorpusEntry("a3_reasoning_and_communication",
                "negative/a3_reasoning_and_communication.oks", ("A3",)),
    CorpusEntry("a7_task_on_state", "negative/a7_task_on_state.oks", ("A7",)),
    CorpusEntry("a8_transfer_on_reasoning",
                "negative/a8_transfer_on_reasoning.oks", ("A8",)),
    CorpusEntry("a13_data_joins_late", "negative/a13_data_joins_late.oks", ("A13",)),
    CorpusEntry("r13_result_leaves_early",
                "negative/r13_result_leaves_early.oks", ("R13",)),
    CorpusEntry("ad35_idle_endurant", "negative/ad35_idle_endurant.oks", ("Ad35",)),
    CorpusEntry("l2b_inference_on_state",
                "negative/l2b_inference_on_state.oks", ("L2b",)),
    CorpusEntry("l3_role_missing_preconditions",
                "negative/l3_role_missing_preconditions.oks", ("L3",)),
    CorpusEntry("l4_formal_role_carries_identity",
                "negative/l4_formal_role_carries_identity.oks", ("L4",)),
    CorpusEntry("l5_task_and_inference_same_time",
                "negative/l5_task_and_inference_same_time.oks", ("L5",)),
    CorpusEntry("l6_antirigid_subsumes_rigid",
                "negative/l6_antirigid_subsumes_rigid.oks", ("L6",)),
    CorpusEntry("w1_subsumption_cycle", "negative/w1_subsumption_cycle.oks", ("W1",)),
    CorpusEntry("w2_disjoint_overlap", "negative/w2_disjoint_overlap.oks", ("W2",)),
    CorpusEntry("s1_pc_signature", "negative/s1_pc_signature.oks", ("S1",)),
    CorpusEntry("s2_missing_participation_witness",
                "negative/s2_missing_participation_witness.oks", ("S2",)),
    CorpusEntry("e1_duplicate_name", "negative/e1_duplicate_name.oks", ("E1",)),
    CorpusEntry("e2_kernel_redefinition",
                "negative/e2_kernel_redefinition.oks", ("E2",)),
    CorpusEntry("e3_dangling_parent", "negative/e3_dangling_parent.oks", ("E3",)),
    CorpusEntry("e4_fact_shape", "negative/e4_fact_shape.oks", ("E4",)),
    CorpusEntry("e5_duplicate_label", "negative/e5_duplicate_label.oks", ("E5",)),
    CorpusEntry("e6_conflicting_annotation",
                "negative/e6_conflicting_annotation.oks", ("E6",)),
    CorpusEntry("e7_particularization_arity",
                "negative/e7_particularization_arity.oks", ("E7",)),
    CorpusEntry("p1_bad_time_literal", "negative/p1_bad_time_literal.oks", ("P1",)),
)

REGISTRY: dict[str, CorpusEntry] = {entry.name: entry for entry in _ENTRIES}


def regenerate_goldens(log=print) -> list[Path]:
    """Explicit golden update step: `okc compile` into each golden
    directory; logs every rewritten file."""
    from .bundle import BUNDLE_FILES
    from .cli import main

    written: list[Path] = []
    for entry in _ENTRIES:
        if entry.golden_dir is None:
            continue
        if main(["compile", str(entry.path()), "--out", str(entry.golden_path())]) != 0:
            raise RuntimeError(f"{entry.name}: okc compile did not exit cleanly")
        for p in (entry.golden_path() / name for name in BUNDLE_FILES):
            log(f"regenerated {p}")
            written.append(p)
    return written


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        regenerate_goldens()
    else:
        print("usage: python -m okc.corpus regen", file=sys.stderr)
        sys.exit(2)
