"""Derivation traces pinned byte for byte.

`corpus/golden/explain/` holds the `okc explain` text of every instance
of the two worked corpus models and of `random_saturation_model(seed)`
for seeds 0-24, one file per model.  The engine's candidate order
decides which premises D1, D2 and D5 record, so a change in how
saturation visits facts shows up here even when the derived sets stay
equal.  The small random models never fire D1 or D2, so the goldens
also hold, for `random_shared_model(seed)` with seeds 0-9, the text of
every instance that has a D1, D2 or D5 membership.

Regenerate only when a trace change is intended:

    PYTHONPATH=src python tests/test_explain_golden.py
"""

from __future__ import annotations

import io

import pytest

from helpers import CORPUS, load_corpus_file, random_saturation_model, random_shared_model

from okc.cli import main
from okc.reasoner import compute_closure, explain_instance, saturate

GOLDEN = CORPUS / "golden" / "explain"
CORPUS_MODELS = ("car_diagnosis", "calibration")
SEEDS = range(25)
SHARED_SEEDS = range(10)
ORDER_DEPENDENT = ("D1", "D2", "D5")


def corpus_explain(name: str) -> str:
    path = str(CORPUS / f"{name}.oks")
    out = []
    for instance in sorted(load_corpus_file(f"{name}.oks").instances):
        stdout, stderr = io.StringIO(), io.StringIO()
        assert main(["explain", path, instance], stdout=stdout, stderr=stderr) == 0
        out.append(stdout.getvalue())
    return "".join(out)


def random_explain(seed: int) -> str:
    onto = random_saturation_model(seed)
    facts = saturate(onto, compute_closure(onto))
    return "".join(explain_instance(onto, facts, instance)
                   for instance in sorted(onto.instances))


def shared_explain(seed: int) -> str:
    onto = random_shared_model(seed)
    facts = saturate(onto, compute_closure(onto))
    picked = {entry.instance for entry, deriv in facts.trace.items()
              if deriv.rule in ORDER_DEPENDENT}
    return "".join(explain_instance(onto, facts, instance) for instance in sorted(picked))


def cases() -> dict[str, callable]:
    out = {name: (lambda name=name: corpus_explain(name)) for name in CORPUS_MODELS}
    for seed in SEEDS:
        out[f"random_saturation_{seed:02d}"] = lambda seed=seed: random_explain(seed)
    for seed in SHARED_SEEDS:
        out[f"shared_saturation_{seed:02d}"] = lambda seed=seed: shared_explain(seed)
    return out


@pytest.mark.parametrize("name", sorted(cases()))
def test_explain_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert cases()[name]() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, render in sorted(cases().items()):
        (GOLDEN / f"{name}.txt").write_text(render(), encoding="utf-8", newline="\n")
