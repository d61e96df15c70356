"""Reasoner: closure vs brute force, saturation vs naive fixpoint, traces."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from helpers import (
    FIXPOINT_MODELS,
    bushy_taxonomy,
    d1_on_every_agent_action,
    deep_chain_source,
    engine_sets,
    grounds_of,
    load_corpus_file,
    load_source,
    members_of,
    naive_saturate,
    random_loadable_model,
    random_saturation_model,
    random_shared_model,
    random_taxonomy,
    reachability_oracle,
    role_fan_in_source,
    role_web_model,
    shared_operand_source,
)
from output_digests import _inputs
from traceability import RULE_CODES

from okc import kernel, reasoner
from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import ConceptDecl, Conjunction, Fact, InstanceDecl
from okc.reasoner import (
    RULE_ASSERTED,
    Ground,
    Member,
    _Engine,
    compute_closure,
    direct_supers,
    explain_instance,
    find_subsumption_cycles,
    instance_component,
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


def _oracle_ancestors(onto) -> dict[str, frozenset[str]]:
    """Each concept's subsumers, itself included, by the brute-force closure."""
    nodes = sorted(onto.concepts)
    reach = reachability_oracle(nodes, {(n, p) for n in nodes
                                        for p in direct_supers(onto.concepts[n])})
    above: dict[str, set[str]] = {}
    for descendant, ancestor in reach:
        above.setdefault(descendant, set()).add(ancestor)
    return {concept: frozenset(ancestors) for concept, ancestors in above.items()}


def _assert_closure_is(closure, onto, above: dict[str, frozenset[str]]) -> None:
    for descendant in onto.concepts:
        for ancestor in onto.concepts:
            assert closure.subsumes(ancestor, descendant) == \
                (ancestor in above[descendant]), (ancestor, descendant)


def closure_matches_oracle(seed: int) -> None:
    """The seed's taxonomy declared parents first, reversed (children first)
    and shuffled: the closure waits on supertypes declared later."""
    decls = random_taxonomy(seed)
    shuffled = random.Random(seed).sample(decls, len(decls))
    for order in (decls, decls[::-1], shuffled):
        onto, diags = merge_with_kernel(order)
        assert onto is not None, diags
        assert list(onto.concepts)[-len(order):] == [d.name for d in order]
        _assert_closure_is(compute_closure(onto), onto, _oracle_ancestors(onto))


@pytest.mark.parametrize("seed", range(20))
def test_closure_against_brute_force(seed):
    closure_matches_oracle(seed)


def test_closure_ignores_an_undeclared_supertype():
    """`load` refuses an undeclared supertype (E3), so only a hand-built
    ontology holds one; the closure reads only the declared supertypes, in
    any declaration order, and no cycle is reported."""
    onto, _ = merge_with_kernel([ConceptDecl("Diagnosis", ("Reasoning",))])
    ghostly = [ConceptDecl("Lower", ("Ghost", "Upper")),
               ConceptDecl("Upper", ("Diagnosis", "Ghost")),
               ConceptDecl("Haunted", ("Ghost",))]
    for order in (ghostly, ghostly[::-1]):
        hand_built = onto._replace(concepts={**onto.concepts, **{d.name: d for d in order}})
        declared = {n: c._replace(parents=tuple(p for p in c.parents if p != "Ghost"))
                    for n, c in hand_built.concepts.items()}
        closure = compute_closure(hand_built)
        _assert_closure_is(closure, hand_built, _oracle_ancestors(onto._replace(concepts=declared)))
        assert closure.ancestors("Lower") == {"Lower", "Upper"} | closure.ancestors("Diagnosis")
        assert closure.ancestors("Haunted") == {"Haunted"}
        assert find_subsumption_cycles(hand_built) == []


def _check_decoding(onto, above: dict[str, frozenset[str]]) -> None:
    """`closure.ancestors` under a full, a dense and two sparse masks, and
    `concepts_of` of every instance, against the ancestor sets `above`."""
    closure = compute_closure(onto)
    facts = saturate(onto, closure)
    rng = random.Random(len(closure.concepts))
    names = closure.concepts
    assert len(names) >= 1_200
    for density in (1.0, 0.7, 0.02, 0.002):
        chosen = {c for c in names if rng.random() < density}
        among = closure.mask(chosen)
        for concept in names:
            assert closure.ancestors(concept, among) == above[concept] & chosen, \
                (density, concept)
    for inst in onto.instances.values():
        assert facts.concepts_of(inst.name) == \
            frozenset().union(*(above[c] for c in inst.concepts)), inst.name


def test_decoding_wide_and_deep_bitsets_against_oracle():
    """Bit positions past 1,000, with sets sparse and dense within their
    width: a bushy taxonomy of 1,200 concepts against the brute-force
    closure, and a 2,000-deep chain against the kernel's closure extended
    down the chain."""
    onto, _ = merge_with_kernel(bushy_taxonomy(0, 1_200))
    _check_decoding(onto, _oracle_ancestors(onto))

    depth = 2_000
    onto, _ = load_source(deep_chain_source(depth))
    above = _oracle_ancestors(kernel_ontology())
    for i in reversed(range(depth)):  # C_i is under C_j exactly when i <= j
        above[f"C{i:05d}"] = above[f"C{i + 1:05d}" if i + 1 < depth else "Reasoning"] \
            | {f"C{i:05d}"}
    _check_decoding(onto, above)


def test_child_first_deep_chain_closes_without_recursion():
    """A 20,000-deep chain declared leaf first, so every concept waits on
    the next: the kernel's closure extended down the chain, as bitsets."""
    depth = 20_000
    onto, _ = load_source(deep_chain_source(depth))
    closure = compute_closure(onto)
    chain = [f"C{i:05d}" for i in range(depth)]
    above = closure.ancestor_bits("Reasoning")
    assert closure.ancestors("Reasoning") == _oracle_ancestors(kernel_ontology())["Reasoning"]
    for concept in reversed(chain):  # C_i is under C_j exactly when i <= j
        above |= closure.mask((concept,))
        assert closure.ancestor_bits(concept) == above, concept
    assert closure.ancestors(chain[0]) == set(chain) | closure.ancestors("Reasoning")


def test_cycle_detection():
    onto, diags = merge_with_kernel([ConceptDecl("Alpha", ("Beta",)),
                                     ConceptDecl("Beta", ("Alpha",))])
    assert diags == []
    assert find_subsumption_cycles(onto) == [("Alpha", "Beta")]
    assert find_subsumption_cycles(kernel_ontology()) == []


def test_closure_refuses_a_cyclic_taxonomy():
    onto, _ = merge_with_kernel([ConceptDecl("Alpha", ("Beta",)),
                                 ConceptDecl("Beta", ("Alpha",))])
    with pytest.raises(ValueError, match="check_w1"):
        compute_closure(onto)


def test_self_cycle_detection():
    onto, _ = merge_with_kernel([ConceptDecl("Selfish", ("Selfish",))])
    assert find_subsumption_cycles(onto) == [("Selfish",)]


def _random_cyclic_taxonomy(seed: int) -> list[ConceptDecl]:
    """Concepts with random parents among themselves and a few kernel
    concepts, some by a conjunction: self-loops, several components and
    edges into the kernel all occur."""
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(rng.randint(1, 14))]
    targets = names + ["PT", "ED", "Reasoning", "Data"]
    return [ConceptDecl(n, (), Conjunction(rng.choice(targets), rng.choice(targets)))
            if rng.random() < 0.15
            else ConceptDecl(n, tuple(rng.sample(targets, rng.randint(0, 3))))
            for n in names]


def test_cycles_match_reachability_oracle():
    """The cycles are the components {u : (v, u) and (u, v) reachable} with
    more than one member or a self-loop, on seeded random cyclic graphs."""
    seen = Counter()
    for seed in range(150):
        onto, diags = merge_with_kernel(_random_cyclic_taxonomy(seed))
        assert onto is not None, diags
        nodes = sorted(onto.concepts)
        edges = {(n, p) for n in nodes for p in direct_supers(onto.concepts[n])}
        reach = reachability_oracle(nodes, edges)
        components = {tuple(v for v in nodes if (u, v) in reach and (v, u) in reach)
                      for u in nodes}
        expected = sorted(c for c in components if len(c) > 1 or (c[0], c[0]) in edges)
        assert find_subsumption_cycles(onto) == expected, seed
        if expected:
            with pytest.raises(ValueError, match="check_w1"):
                compute_closure(onto)
        else:
            closure = compute_closure(onto)
            assert {(d, a) for d in nodes for a in nodes if closure.subsumes(a, d)} == reach, seed
        seen["self-loop"] += any(len(c) == 1 for c in expected)
        seen["longer"] += any(len(c) > 1 for c in expected)
        seen["several"] += len(expected) > 1
    assert min(seen["self-loop"], seen["longer"], seen["several"]) >= 10, seen


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
    assert grounds_of(facts) == set()


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
        "c : IdaConcept\n" in explain_instance(facts, "c")


# The engine visits the asserted memberships, then the asserted facts, then
# what they derive.  In the first five cases a membership two concepts up,
# or a fact derived by R-up, is visited after every other premise of its
# rule, so one D1 or D2 trigger alone can fire.  In the chained ones a
# rule fires twice in one visit, the second time from the first's
# conclusion, ahead of an M-up chain that derives the same entry later.
AGENT = "instance a : AC\ninstance y : APO\n"
VISIT_ORDER = {
    "D1-agentive": (AGENT + "concept Robot specializes APO\nconcept Droid specializes Robot\n"
                    "instance z : Droid\nfact isAgentOf(y, a)\nfact PC(z, a, 0)\n",
                    "a : Interaction  [D1] from a : AC, isAgentOf(y, a), z : APO, PC(z, a, 0)"),
    "D1-action": (AGENT + "concept Deeper specializes AC\nconcept Deep specializes Deeper\n"
                  "instance b : Deep\ninstance z : APO\nfact isAgentOf(y, b)\nfact PC(z, b, 0)\n",
                  "b : Interaction  [D1] from b : AC, isAgentOf(y, b), z : APO, PC(z, b, 0)"),
    "D1-PC": (AGENT + "relation joins particularizes PC signature (ED, PD) temporal\n"
              "instance z : APO\nfact isAgentOf(y, a)\nfact joins(z, a, 0)\n",
              "a : Interaction  [D1] from a : AC, isAgentOf(y, a), z : APO, PC(z, a, 0)"),
    "D1-isAgentOf": (AGENT + "relation leads particularizes isAgentOf signature (APO|ASO, AC)\n"
                     "instance z : APO\nfact leads(y, a)\nfact PC(z, a, 0)\n",
                     "a : Interaction  [D1] from a : AC, isAgentOf(y, a), z : APO, PC(z, a, 0)"),
    "D2-hasForSubject": ("relation about particularizes hasForSubject "
                         "signature (Proposition, IdaConcept)\n"
                         "instance p : Proposition\ninstance c : IdaConcept\nfact about(p, c)\n",
                         "c : Subject  [D2] from hasForSubject(p, c), p : Proposition, "
                         "c : IdaConcept"),
    "D6-chained": ("role Role1 = data of Reasoning\nconcept Conj0 = Model and Role1\n"
                   "concept Conj1 = Model and Conj0\nconcept Conj3 = Conj1 and Conj0\n"
                   "concept Deep specializes Conj3\ninstance x : Deep, Model, Role1\n",
                   "x : Conj1  [D6] from x : Model, x : Conj0"),
    "D5-chained": ("concept R specializes Reasoning\nrole RoleA = data of R\n"
                   "role RoleB = data of RoleA\nconcept Mid specializes RoleB\n"
                   "concept Mid2 specializes Mid\nconcept DeepB specializes Mid2\n"
                   "relation feeds particularizes isDataOf signature (Content, AC)\n"
                   "instance r : R, DeepB\nfact feeds(r, r)\n",
                   "r : RoleB  [D5] from isDataOf(r, r), r : RoleA"),
    # reduced from role_web_model(291): D6 must try x12's candidates in name order
    "D6-name-order": ("".join(f"concept {c} = {a} and {b}\n" for c, a, b in (
        ("Conj0", "Role0", "Role0"), ("Conj1", "Role1", "Conj0"),
        ("Conj12", "Hypothesis", "Conj3"), ("Conj14", "Conj9", "Conj12"),
        ("Conj19", "Role0", "Conj1"), ("Conj2", "Conj1", "Conj0"), ("Conj25", "Conj6", "Role11"),
        ("Conj28", "Conj5", "Conj0"), ("Conj3", "Role1", "Conj2"), ("Conj31", "Role8", "Conj25"),
        ("Conj33", "Conj9", "Conj0"), ("Conj39", "Conj31", "Conj14"),
        ("Conj5", "Hypothesis", "Role0"), ("Conj6", "Hypothesis", "Role1"),
        ("Conj9", "Proposition", "Role3"))) +
        "concept Reason0 specializes Reasoning\nconcept Reason1 specializes Reason0\n"
        "concept Reason2 specializes Reason0\nrole Role0 = data of Reason1\n"
        "role Role1 = result of Role0\nrole Role11 = data of Conj19\n"
        "role Role3 = result of Reason1\nrole Role8 = data of Reason2\n"
        "instance x12 : Conj31, Conj39, Conj5\n",
        "x12 : Conj2  [D6] from x12 : Conj1, x12 : Conj0"),
}


@pytest.mark.parametrize("case", VISIT_ORDER)
def test_traces_follow_the_engine_visit_order(case):
    source, derived = VISIT_ORDER[case]
    onto, diags = load_source(source)
    assert onto is not None, diags
    assert_fixpoint_matches_engine(onto, case)
    instance = derived.split(" ", 1)[0]
    facts = saturate(onto, compute_closure(onto))
    assert f"\n  {derived}\n" in explain_instance(facts, instance), case


def test_t_theorems_hold_in_saturated_bases():
    for seed in range(10):
        onto = random_saturation_model(seed)
        facts = saturate(onto, compute_closure(onto))
        instances_of = {}
        for m in members_of(onto, facts):
            instances_of.setdefault(m.concept, set()).add(m.instance)
        data = instances_of.get("Data", set())
        assert data <= instances_of.get("Patient", set())
        assert data <= instances_of.get("Content", set())


def test_disjoint_instances_are_the_members_of_disjoint_concepts():
    models = [random_saturation_model(seed) for seed in range(30)]
    models += [random_shared_model(seed) for seed in range(10)]
    models += [random_loadable_model(seed) for seed in range(50)]
    for onto in models:
        facts = saturate(onto, compute_closure(onto))
        named = {c for pair in onto.disjoints for c in pair}
        expected: dict[str, set[str]] = {}
        for m in members_of(onto, facts):
            if m.concept in named:
                expected.setdefault(m.concept, set()).add(m.instance)
        assert facts.disjoint_instances == expected


@pytest.mark.parametrize("seed", range(25))
def test_saturation_against_naive_fixpoint(seed):
    onto = random_saturation_model(seed)
    engine = engine_sets(onto, saturate(onto, compute_closure(onto)))
    oracle = naive_saturate(onto, random.Random(seed * 31 + 7))
    assert engine == oracle


@pytest.mark.parametrize("seed", range(10))
def test_shared_model_saturation_against_naive_fixpoint(seed):
    onto = random_shared_model(seed)
    assert 40 <= len(onto.instances) <= 80 and 60 <= len(onto.facts) <= 150
    engine = engine_sets(onto, saturate(onto, compute_closure(onto)))
    assert engine == naive_saturate(onto, random.Random(seed))


@pytest.mark.parametrize("seed", range(30))
def test_role_web_saturation_against_naive_fixpoint(seed):
    onto = role_web_model(seed)
    defined = [c for c in onto.concepts.values() if c.definition is not None]
    assert 20 <= len(defined) <= 60
    engine = engine_sets(onto, saturate(onto, compute_closure(onto)))
    assert engine == naive_saturate(onto, random.Random(seed))


def test_order_independence_of_naive_oracle():
    onto = random_saturation_model(3)
    results = {tuple(sorted(naive_saturate(onto, random.Random(s))[0]))
               for s in range(5)}
    assert len(results) == 1


def test_monotonicity_over_asserted_facts():
    for seed in range(8):
        onto = random_saturation_model(seed)
        facts_all = sorted(onto.facts.values(), key=lambda f: f[:3])
        if not facts_all:
            continue
        keep = facts_all[: len(facts_all) // 2]
        smaller_decls = (
            list(onto.concepts.values()) + list(onto.relations.values())
            + list(onto.instances.values()) + keep)
        smaller_decls = [d for d in smaller_decls if d not in kernel.KERNEL_DECLARATIONS]
        smaller, diags = merge_with_kernel(smaller_decls)
        assert smaller is not None, diags
        small_m, small_g = engine_sets(smaller, saturate(smaller, compute_closure(smaller)))
        big_m, big_g = engine_sets(onto, saturate(onto, compute_closure(onto)))
        assert small_m <= big_m and small_g <= big_g


def test_idempotence_resaturating_saturated_base():
    onto = random_saturation_model(11)
    facts = saturate(onto, compute_closure(onto))
    members, grounds = engine_sets(onto, facts)
    schema = (*onto.concepts.values(), *onto.relations.values(), *onto.disjoints.values(),
              *(a for per in onto.annotations.values() for a in per.values()),
              *onto.labels.values())
    decls = [d for d in schema if d not in kernel.KERNEL_DECLARATIONS]
    by_instance: dict[str, set[str]] = {}
    for instance, concept in members:
        by_instance.setdefault(instance, set()).add(concept)
    decls += [InstanceDecl(instance, tuple(sorted(concepts)))
              for instance, concepts in by_instance.items()]
    decls += [Fact(relation, args, time) for relation, args, time in grounds]
    closed, diags = merge_with_kernel(decls)
    assert closed is not None, diags
    again = engine_sets(closed, saturate(closed, compute_closure(closed)))
    assert again == (members, grounds)


def test_every_derived_entry_has_grounded_trace():
    onto = random_saturation_model(5)
    facts = saturate(onto, compute_closure(onto))
    for entry in facts.trace:
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
    text = explain_instance(facts, "m1")
    assert "m1 : Model  [asserted]" in text
    assert "m1 : CalibrationData  [D5]" in text
    assert "m1 : ModelToCalibrate  [D6]" in text
    assert "isAffectedBy(m1, calib1)  [R-up]" in text


# --- fixpoint against the traced engine ------------------------------------------

def assert_fixpoint_matches_engine(onto, what) -> None:
    facts = saturate(onto, compute_closure(onto))
    trace = _Engine(onto, reasoner._RuleTable(onto)).run()
    assert members_of(onto, facts) == {e for e in trace if isinstance(e, Member)}, what
    grounds = grounds_of(facts)
    assert grounds == {e for e in trace if isinstance(e, Ground)}, what
    for g in grounds:  # line_of follows the trace's R-up premises
        source = g
        while trace[source].rule != RULE_ASSERTED:
            assert trace[source].rule == "R-up", what
            source = trace[source].premises[0]
        assert facts.line_of(g) == onto.facts[source].line, (what, g)


@pytest.mark.parametrize("family", sorted(FIXPOINT_MODELS))
def test_fixpoint_matches_traced_engine(family):
    build, seeds = FIXPOINT_MODELS[family]
    for seed in seeds:
        assert_fixpoint_matches_engine(build(seed), (family, seed))


@pytest.mark.parametrize("family", sorted(FIXPOINT_MODELS))
def test_fact_reads_match_naive_saturation(family):
    build, seeds = FIXPOINT_MODELS[family]
    for seed in seeds:
        onto = build(seed)
        facts = saturate(onto, compute_closure(onto))
        _, grounds = naive_saturate(onto, random.Random(seed))
        derived = grounds_of(facts)
        for rel in sorted(onto.relations.values(), key=lambda r: r.name):
            expected = {Ground(*g) for g in grounds if g[0] == rel.name}
            assert {g for g in derived if g.relation == rel.name} == expected, \
                (family, seed, rel.name)
            assert {g.args for g in facts.under(rel.name)} == {g.args for g in expected}, \
                (family, seed, rel.name)


def test_trace_is_built_on_first_read_only(monkeypatch):
    onto = random_shared_model(0)
    facts = saturate(onto, compute_closure(onto))
    runs = []
    monkeypatch.setattr(_Engine, "run", lambda self: runs.append(self.rules) or {})
    assert facts.has_member("x00", "PT") and grounds_of(facts) and not runs
    assert facts.trace is facts.trace
    assert len(runs) == 1 and runs[0] is facts._rules  # the fact base's own rule table


def test_instance_component_keeps_linked_instances_and_their_facts():
    onto, _ = load_source(
        "instance a : Model\ninstance b : Model\ninstance c : APO\n"
        "instance d : Model\ninstance e : Model\n"
        "fact PC(a, b, 0)\nfact PC(c, b, 1)\nfact PRE(d, 0)\n")
    component = instance_component(onto, "a")
    assert sorted(component.instances) == ["a", "b", "c"]
    assert sorted(component.facts) == [("PC", ("a", "b"), 0), ("PC", ("c", "b"), 1)]
    assert component.concepts is onto.concepts
    assert sorted(instance_component(onto, "e").instances) == ["e"]


@pytest.mark.parametrize("model", [
    *(f"corpus:{name}" for name in ("car_diagnosis", "calibration")),
    *(f"random_saturation_model:{seed}" for seed in range(25)),
    *(f"random_shared_model:{seed}" for seed in range(10)),
    *(f"role_web_model:{seed}" for seed in range(10)),
])
def test_component_explain_equals_full_model_explain(model):
    family, _, arg = model.partition(":")
    onto = (load_corpus_file(f"{arg}.oks") if family == "corpus"
            else FIXPOINT_MODELS[family][0](int(arg)))
    closure = compute_closure(onto)
    full = saturate(onto, closure)
    for instance in sorted(onto.instances):
        component = instance_component(onto, instance)
        assert explain_instance(saturate(component, closure), instance) == \
            explain_instance(full, instance), (model, instance)


# --- the rule table ---------------------------------------------------------------

D1_D2_READS = (kernel.ACTION, *kernel.AGENTIVE_UNION, kernel.PROPOSITION, kernel.IDA_CONCEPT)


@pytest.mark.parametrize("family", sorted(FIXPOINT_MODELS))
def test_d1_d2_inputs_are_final_after_d3_d4(family):
    # saturate fires D1 and D2 once, before D5 and D6: the memberships
    # they read must follow from the asserted, D3 and D4 ones by M-up.
    feeds = {"isAffectedBy": "Patient", "isDataOf": "Data", "isResultOf": "Result"}
    build, seeds = FIXPOINT_MODELS[family]
    for seed in seeds:
        onto = build(seed)
        closure = compute_closure(onto)
        facts = saturate(onto, closure)
        early = {(i.name, c) for i in onto.instances.values() for c in i.concepts}
        early |= {(g.args[0], feeds[g.relation]) for g in grounds_of(facts)
                  if g.relation in feeds}
        expected = {(x, a) for x, c in early for a in closure.ancestors(c) if a in D1_D2_READS}
        final = {(m.instance, m.concept) for m in members_of(onto, facts)
                 if m.concept in D1_D2_READS}
        assert final == expected, (family, seed)


@pytest.mark.parametrize("family", sorted(FIXPOINT_MODELS))
def test_d1_runs_only_on_its_candidates(family):
    # saturate fires D1 as a bit test on the actions with an agentive
    # participant that is not their only agent, and D2 as two bit tests on
    # the arguments of hasForSubject.  The Interactions and Subjects must be
    # the naive fixpoint's, and D1's body, tested on every action with an
    # agent, must hold for no action that is not an Interaction.
    build, seeds = FIXPOINT_MODELS[family]
    fired = 0
    for seed in seeds:
        onto = build(seed)
        closure = compute_closure(onto)
        facts = saturate(onto, closure)
        members, _ = naive_saturate(onto, random.Random(seed))
        for concept in (kernel.INTERACTION, kernel.SUBJECT):
            assert facts.instances_of(concept) == {x for x, c in members if c == concept}, \
                (family, seed, concept)
        derived = d1_on_every_agent_action(facts)
        assert derived <= facts.instances_of(kernel.INTERACTION), (family, seed)
        fired += len({x for x in derived if not any(
            closure.subsumes(kernel.INTERACTION, c) for c in onto.instances[x].concepts)})
    if family == "d1_model":
        assert fired


def test_output_digest_inputs_derive_by_d1_and_d2():
    # The byte-identity digests see a change to saturation's D1 or D2 only
    # if some input derives a membership by that rule.
    rules = Counter()
    for name, text, _ in _inputs():
        onto, _ = load_source(text, name)
        if onto is not None and not find_subsumption_cycles(onto):
            rules.update(d.rule for d in saturate(onto, compute_closure(onto)).trace.values())
    assert rules["D1"] >= 1 and rules["D2"] >= 1, rules


def count_d5_d6_evaluations(monkeypatch, evaluate, source: str) -> int:
    """Entries of the rule table's D5 and D6 lists and dicts that `evaluate` iterates."""
    visited = [0]

    class CountedList(list):
        def __iter__(self):
            visited[0] += len(self)
            return super().__iter__()

    class CountedDict(dict):
        def __iter__(self):
            visited[0] += len(self)
            return super().__iter__()

        def items(self):
            visited[0] += len(self)
            return super().items()

    build = reasoner._RuleTable.__init__

    def counting(table, ontology):
        build(table, ontology)
        table.d5 = CountedDict((c, CountedList(roles)) for c, roles in table.d5.items())
        table.d6 = CountedDict(
            (c, CountedDict((o, CountedList(conjunctions)) for o, conjunctions in by.items()))
            for c, by in table.d6.items())

    onto, _ = load_source(source)
    with monkeypatch.context() as patch:
        patch.setattr(reasoner._RuleTable, "__init__", counting)
        evaluate(onto)
    return visited[0]


@pytest.mark.parametrize("source", [shared_operand_source, role_fan_in_source])
@pytest.mark.parametrize("evaluate", [
    lambda onto: saturate(onto, compute_closure(onto)),
    lambda onto: _Engine(onto, reasoner._RuleTable(onto)).run(),
], ids=["fixpoint", "engine"])
def test_d5_d6_work_is_linear_in_the_model(monkeypatch, source, evaluate):
    small, large = (count_d5_d6_evaluations(monkeypatch, evaluate, source(n))
                    for n in (200, 400))
    assert 0 < small and large <= 2.1 * small, (small, large)
