"""Reasoner: closure vs brute force, saturation vs naive fixpoint, traces."""

from __future__ import annotations

import random

import pytest

from helpers import (
    engine_sets,
    load_source,
    naive_saturate,
    random_saturation_model,
    random_shared_model,
    random_taxonomy,
    reachability_oracle,
)

from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import ConceptDecl, Fact, InstanceDecl, Loader
from okc.reasoner import (
    RULE_ASSERTED,
    RULE_CODES,
    compute_closure,
    direct_supers,
    explain_instance,
    find_subsumption_cycles,
    saturate,
)


def closure_of(onto):
    return compute_closure(onto)


def test_subsumes_asserted_chain():
    onto, _ = merge_with_kernel([ConceptDecl("Diagnosis", ("Reasoning",))])
    closure = closure_of(onto)
    assert closure.subsumes("Reasoning", "Diagnosis")
    assert closure.subsumes("AC", "Diagnosis")
    assert not closure.subsumes("Diagnosis", "Reasoning")


def test_subsumes_is_reflexive():
    closure = closure_of(kernel_ontology())
    for concept in kernel_ontology().concepts:
        assert closure.subsumes(concept, concept)


def test_closure_includes_definition_edges():
    onto, _ = load_source(
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "concept ModelToCalibrate = Model and CalibrationData\n")
    closure = closure_of(onto)
    assert closure.subsumes("Data", "CalibrationData")
    assert closure.subsumes("Content", "CalibrationData")
    assert closure.subsumes("Model", "ModelToCalibrate")
    assert closure.subsumes("CalibrationData", "ModelToCalibrate")
    assert not closure.subsumes("Calibrating", "CalibrationData")


def closure_matches_oracle(seed: int) -> None:
    decls = random_taxonomy(seed)
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, diags
    closure = compute_closure(onto)
    nodes = sorted(onto.concepts)
    edges = {(name, parent)
             for name in nodes for parent in direct_supers(onto.concepts[name])}
    reach = reachability_oracle(nodes, edges)
    for descendant in nodes:
        for ancestor in nodes:
            assert closure.subsumes(ancestor, descendant) == \
                ((descendant, ancestor) in reach), (seed, ancestor, descendant)


@pytest.mark.parametrize("seed", range(20))
def test_closure_against_brute_force(seed):
    closure_matches_oracle(seed)


def test_cycle_detection():
    loader = Loader(kernel_ontology())
    loader.add(ConceptDecl("Alpha", ("Beta",)))
    loader.add(ConceptDecl("Beta", ("Alpha",)))
    onto, diags = loader.finalize()
    assert diags == []
    assert find_subsumption_cycles(onto) == [("Alpha", "Beta")]
    assert find_subsumption_cycles(kernel_ontology()) == []


def test_closure_refuses_a_cyclic_taxonomy():
    loader = Loader(kernel_ontology())
    loader.add(ConceptDecl("Alpha", ("Beta",)))
    loader.add(ConceptDecl("Beta", ("Alpha",)))
    onto, _ = loader.finalize()
    with pytest.raises(ValueError, match="check_w1"):
        compute_closure(onto)


def test_self_cycle_detection():
    onto, _ = merge_with_kernel([ConceptDecl("Selfish", ("Selfish",))])
    assert find_subsumption_cycles(onto) == [("Selfish",)]


# --- saturation ----------------------------------------------------------------


def test_saturation_data_role_chain():
    onto, _ = load_source(
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "instance m : Model\n"
        "instance c1 : Calibrating\n"
        "fact isDataOf(m, c1)\n")
    facts = saturate(onto, compute_closure(onto))
    for concept in ("CalibrationData", "Data", "Patient", "Content", "ED"):
        assert facts.has_member("m", concept), concept


def test_saturation_conjunction(calibration_ontology):
    facts = saturate(calibration_ontology, compute_closure(calibration_ontology))
    assert facts.has_member("m1", "CalibrationData")
    assert facts.has_member("m1", "ModelToCalibrate")


def test_saturation_without_facts_is_upward_closure_only():
    onto, _ = load_source("instance m : Model\n")
    facts = saturate(onto, compute_closure(onto))
    assert facts.concepts_of("m") == {
        "Model", "Proposition", "Content", "MOB", "NPOB", "ED", "PT"}
    assert facts.grounds == set()


def test_interaction_derivation_requires_distinct_agentive():
    base = (
        "concept Negotiating specializes AC\n"
        "instance s : Negotiating\n"
        "instance a1 : APO\n"
        "fact isAgentOf(a1, s)\n")
    onto, _ = load_source(base + "fact PC(a1, s, 0)\n")
    facts = saturate(onto, compute_closure(onto))
    assert not facts.has_member("s", "Interaction")

    onto, _ = load_source(base + "instance a2 : ASO\nfact PC(a2, s, 0)\n")
    facts = saturate(onto, compute_closure(onto))
    assert facts.has_member("s", "Interaction")


def test_d2_premise_follows_the_engine_visit_order():
    # p2 : Proposition is processed while c : IdaConcept is already in the
    # base, so D2 fires from hasForSubject(p2, c) before either fact is
    # processed, although hasForSubject(p1, c) sorts first.
    onto, _ = load_source(
        "concept Notion specializes IdaConcept\n"
        "instance c : Notion\n"
        "instance p1 : Assertion\n"
        "instance p2 : Proposition\n"
        "fact hasForSubject(p1, c)\n"
        "fact hasForSubject(p2, c)\n")
    facts = saturate(onto, compute_closure(onto))
    assert "c : Subject  [D2] from hasForSubject(p2, c), p2 : Proposition, " \
        "c : IdaConcept\n" in explain_instance(onto, facts, "c")


def test_t_theorems_hold_in_saturated_bases():
    for seed in range(10):
        onto = random_saturation_model(seed)
        facts = saturate(onto, compute_closure(onto))
        data = facts.instances_of.get("Data", set())
        assert data <= facts.instances_of.get("Patient", set())
        assert data <= facts.instances_of.get("Content", set())


@pytest.mark.parametrize("seed", range(25))
def test_saturation_against_naive_fixpoint(seed):
    onto = random_saturation_model(seed)
    engine = engine_sets(saturate(onto, compute_closure(onto)))
    oracle = naive_saturate(onto, random.Random(seed * 31 + 7))
    assert engine == oracle


@pytest.mark.parametrize("seed", range(10))
def test_shared_model_saturation_against_naive_fixpoint(seed):
    onto = random_shared_model(seed)
    assert 40 <= len(onto.instances) <= 80 and 60 <= len(onto.facts) <= 150
    engine = engine_sets(saturate(onto, compute_closure(onto)))
    assert engine == naive_saturate(onto, random.Random(seed))


def test_order_independence_of_naive_oracle():
    onto = random_saturation_model(3)
    results = {tuple(sorted(naive_saturate(onto, random.Random(s))[0]))
               for s in range(5)}
    assert len(results) == 1


def test_monotonicity_over_asserted_facts():
    for seed in range(8):
        onto = random_saturation_model(seed)
        facts_all = sorted(onto.facts.values(), key=lambda f: f.key())
        if not facts_all:
            continue
        keep = facts_all[: len(facts_all) // 2]
        smaller_decls = (
            list(onto.concepts.values()) + list(onto.relations.values())
            + list(onto.instances.values()) + keep)
        smaller_decls = [d for d in smaller_decls if d.origin.value != "kernel"]
        smaller, diags = merge_with_kernel(smaller_decls)
        assert smaller is not None, diags
        small_m, small_g = engine_sets(saturate(smaller, compute_closure(smaller)))
        big_m, big_g = engine_sets(saturate(onto, compute_closure(onto)))
        assert small_m <= big_m and small_g <= big_g


def test_idempotence_resaturating_saturated_base():
    onto = random_saturation_model(11)
    facts = saturate(onto, compute_closure(onto))
    members, grounds = engine_sets(facts)
    loader = Loader(kernel_ontology())
    for decl in onto.iter_declarations():
        if decl.origin.value != "kernel" and not isinstance(decl, (InstanceDecl, Fact)):
            loader.add(decl)
    by_instance: dict[str, set[str]] = {}
    for instance, concept in members:
        by_instance.setdefault(instance, set()).add(concept)
    for instance, concepts in by_instance.items():
        loader.add(InstanceDecl(instance, tuple(sorted(concepts))))
    for relation, args, time in grounds:
        loader.add(Fact(relation, args, time))
    closed, diags = loader.finalize()
    assert closed is not None, diags
    again = engine_sets(saturate(closed, compute_closure(closed)))
    assert again == (members, grounds)


def test_every_derived_entry_has_grounded_trace():
    onto = random_saturation_model(5)
    facts = saturate(onto, compute_closure(onto))
    for entry in facts.entries():
        seen = set()
        stack = [entry]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            deriv = facts.trace[current]
            if deriv.rule == RULE_ASSERTED:
                continue
            assert deriv.rule in RULE_CODES
            assert deriv.premises
            stack.extend(deriv.premises)


def test_explain_output(calibration_ontology):
    facts = saturate(calibration_ontology, compute_closure(calibration_ontology))
    text = explain_instance(calibration_ontology, facts, "m1")
    assert "m1 : Model  [asserted]" in text
    assert "m1 : CalibrationData  [D5]" in text
    assert "m1 : ModelToCalibrate  [D6]" in text
    assert "isAffectedBy(m1, calib1)  [R-up]" in text
