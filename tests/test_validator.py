"""Validator: per-check behavior, determinism, kernel cleanliness."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from helpers import (
    FIXPOINT_MODELS,
    all_codes,
    check_source,
    error_codes,
    grounds_of,
    load_corpus_file,
    load_source,
    ontology_content,
    particularization_model,
    particularization_source,
    random_saturation_model,
    random_shared_model,
    random_taxonomy,
    reachability_oracle,
    shared_temporal_model,
    temporal_model,
    temporal_oracle,
)
from traceability import VALIDATOR_CODES

from okc import kernel

from okc.checks import (
    _VALIDATOR_CHECKS,
    REGISTRY,
    SIGNATURE_AXIOM,
    check_ad35,
    check_labels,
    check_s1,
    check_s2,
    check_temporal_participation,
    check_w1,
    check_w2,
    validate,
)
from okc.frontend import parse
from okc.kernel import kernel_ontology, merge_with_kernel
from okc.model import (
    AXIS_RIGIDITY,
    AnnotationDecl,
    DisjointDecl,
    Severity,
    SourceText,
    direct_supers,
)
from okc.reasoner import RULE_ASSERTED, compute_closure, saturate


def test_kernel_has_no_findings():
    assert validate(kernel_ontology()) == []


def test_pc_signature_error_cites_ad33():
    diags = check_source(
        "instance p1 : PD\ninstance e1 : PD\nfact PC(p1, e1, 0)\n")
    assert error_codes(diags) == ["S1"]
    assert "Ad33" in diags[0].message


def test_label_examples_from_registry():
    # Task on a Reasoning concept: no finding.
    assert check_source(
        "concept Diagnosis specializes Reasoning\nlabel Task Diagnosis at 1\n") == []
    # Task on a state concept: exactly the A7 error.
    diags = check_source(
        "concept EmptyFuelTank specializes STV\nlabel Task EmptyFuelTank at 3\n")
    assert error_codes(diags) == ["A7"]
    # A formal knowledge role with proper annotations: no finding.
    assert check_source(
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "label FormalKnowledgeRole CalibrationData at 2\n") == []


def test_material_role_example_is_clean(calibration_ontology):
    assert validate(calibration_ontology) == []


def test_material_role_requires_formal_subsumer_at_same_time():
    source = (
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "concept ModelToCalibrate = Model and CalibrationData\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "annotate ModelToCalibrate rigidity anti-rigid\n"
        "annotate ModelToCalibrate dependence dependent\n"
        "annotate ModelToCalibrate identity carries\n"
        "annotate Model rigidity rigid\n"
        "annotate Model identity carries\n"
        "label FormalKnowledgeRole CalibrationData at 2\n"
        "label MaterialKnowledgeRole ModelToCalibrate at 5\n")  # time mismatch
    diags = check_source(source)
    assert error_codes(diags) == ["L4"]
    assert "time 5" in diags[0].message


def test_material_role_requires_rigid_identity_type():
    source = (
        "concept Calibrating specializes Reasoning\n"
        "role CalibrationData = data of Calibrating\n"
        "concept ModelToCalibrate = Model and CalibrationData\n"
        "annotate CalibrationData rigidity anti-rigid\n"
        "annotate CalibrationData dependence dependent\n"
        "annotate CalibrationData identity none\n"
        "annotate ModelToCalibrate rigidity anti-rigid\n"
        "annotate ModelToCalibrate dependence dependent\n"
        "annotate ModelToCalibrate identity carries\n"
        "label FormalKnowledgeRole CalibrationData at 2\n"
        "label MaterialKnowledgeRole ModelToCalibrate at 2\n")  # Model unannotated
    diags = check_source(source)
    assert error_codes(diags) == ["L4"]
    assert "rigid identity-carrying" in diags[0].message


def test_input_output_labels():
    base = (
        "concept Calibrating specializes Reasoning\n"
        "role In0 = data of Calibrating\n"
        "role Out0 = result of Calibrating\n"
        "annotate In0 rigidity anti-rigid\n"
        "annotate In0 dependence dependent\n"
        "annotate Out0 rigidity anti-rigid\n"
        "annotate Out0 dependence dependent\n")
    assert check_source(base + "label Input In0 at 1\nlabel Output Out0 at 1\n") == []
    diags = check_source(base + "label Input Out0 at 1\n")
    assert error_codes(diags) == ["L4"]
    diags = check_source(base + "label Output In0 at 1\n")
    assert error_codes(diags) == ["L4"]


def test_l5_same_family_same_time_only():
    base = "concept Think specializes Reasoning\n"
    diags = check_source(
        base + "label Task Think at 1\nlabel Inference Think at 1\n")
    assert error_codes(diags) == ["L5"]
    # The span is the last label's in (concept, time, primitive) order.
    assert diags[0].span.line == 2
    # Different times are fine: classifications change over time.
    assert check_source(
        base + "label Task Think at 4\nlabel Inference Think at 1\n") == []
    # Different families at one time are not L5 violations.
    diags = check_source(
        base + "label Task Think at 1\nlabel DomainConcept Think at 1\n")
    assert "L5" not in all_codes(diags)


def test_l6_antirigid_over_rigid():
    diags = check_source(
        "concept Stakeholder specializes NPOB\n"
        "annotate Stakeholder rigidity anti-rigid\n"
        "concept Auditor specializes Stakeholder\n"
        "annotate Auditor rigidity rigid\n")
    assert error_codes(diags) == ["L6"]
    # The other direction (rigid above anti-rigid) is the normal case.
    assert check_source(
        "concept Person specializes NPOB\n"
        "annotate Person rigidity rigid\n"
        "concept Student specializes Person\n"
        "annotate Student rigidity anti-rigid\n") == []


def test_w2_concept_and_instance_level():
    diags = check_source(
        "concept Flora specializes NPOB\nconcept Fauna specializes NPOB\n"
        "disjoint Flora Fauna\nconcept Chimera specializes Flora, Fauna\n")
    assert error_codes(diags) == ["W2"]
    diags = check_source(
        "concept Flora specializes NPOB\nconcept Fauna specializes NPOB\n"
        "disjoint Flora Fauna\ninstance x : Flora, Fauna\n")
    assert "W2" in error_codes(diags)


def disjoint_rigidity_model(seed: int):
    """A random taxonomy with random disjoint pairs and rigidity annotations."""
    rng = random.Random(seed)
    taxonomy = random_taxonomy(seed, max_nodes=16)
    names = [d.name for d in taxonomy] + ["PT", "ED", "Reasoning", "Content"]
    decls = taxonomy + [DisjointDecl(*rng.sample(names, 2)) for _ in range(rng.randint(0, 8))]
    annotations = [AnnotationDecl(d.name, AXIS_RIGIDITY,
                                  rng.choice(("rigid", "anti-rigid", "semi-rigid")),
                                  line)
                   for line, d in enumerate(taxonomy, start=1) if rng.random() < 0.8]
    lines = {a.line: f"annotate {a.concept} {a.axis} {a.value}" for a in annotations}
    text = "\n".join(lines.get(line, "") for line in range(1, 1 + len(taxonomy)))
    source = SourceText("<test>", text)
    onto, diags = merge_with_kernel(decls + annotations, source)
    assert onto is not None, [d.render() for d in diags]
    return onto


@pytest.mark.parametrize("seed", range(40))
def test_w2_and_l6_concept_findings_match_reachability_oracle(seed):
    onto = disjoint_rigidity_model(seed)
    nodes = sorted(onto.concepts)
    reach = reachability_oracle(nodes, {(n, p) for n in nodes
                                        for p in direct_supers(onto.concepts[n])})
    facts = saturate(onto, compute_closure(onto))
    at = onto.source.span
    w2 = {(d.subjects, d.span) for d in check_w2(facts) if d.subjects[0] in onto.concepts}
    assert w2 == {((c, a, b), at(onto.concepts[c].line))
                  for a, b in onto.disjoints for c in nodes
                  if (c, a) in reach and (c, b) in reach}, seed
    l6 = {(d.subjects, d.span) for d in check_labels(facts)
          if d.code == "L6"}
    rigidity = {c: onto.annotation_value(c, AXIS_RIGIDITY) for c in onto.annotations}
    assert l6 == {((upper, lower), at(onto.annotations[upper][AXIS_RIGIDITY].line))
                  for upper, value in rigidity.items() if value == "anti-rigid"
                  for lower, other in rigidity.items() if other == "rigid"
                  and (lower, upper) in reach}, seed


def test_a3_owns_reasoning_communication_instances():
    diags = check_source(
        "concept Chat specializes Communication\n"
        "concept Ponder specializes Reasoning\n"
        "instance x1 : Chat, Ponder\n")
    assert error_codes(diags) == ["A3"]


def test_w1_cycle_short_circuits_other_checks():
    diags = check_source(
        "concept Alpha specializes Beta\nconcept Beta specializes Alpha\n"
        "label Task Alpha at 1\n")
    assert all_codes(diags) == {"W1"}


def test_w1_message_follows_declared_edges():
    diags = check_source("concept K00 specializes K02\n"
                         "concept K02 specializes K01\n"
                         "concept K01 specializes K00\n", "k.oks")
    assert [d.render() for d in diags] == [
        "k.oks:1:1: error[W1] subsumption cycle: K00 -> K02 -> K01"]


@pytest.mark.parametrize("text", [
    "concept A specializes B\nconcept B specializes A, C\nconcept C specializes B\n",
    "concept C specializes B\nconcept B specializes C, A\nconcept A specializes B\n",
    "concept A specializes C\nconcept B specializes A\nconcept C specializes A, B\n",
], ids=["two 2-cycles", "two 2-cycles declared backwards", "2-cycle and 3-cycle"])
def test_w1_arrows_are_declared_edges_in_any_component(text):
    """A component that is not one simple cycle: every arrow the message
    draws is a declared edge, the named path closes at its first member
    unless the component's size follows, and the subjects are every member."""
    onto, _ = load_source(text)
    (diag,) = check_w1(onto)
    path, _, rest = diag.message.removeprefix("subsumption cycle: ").partition(" -> ...")
    names = path.split(" -> ")
    closing = [] if rest else [(names[-1], names[0])]
    for child, parent in [*zip(names, names[1:]), *closing]:
        assert parent in direct_supers(onto.concepts[child]), (child, parent)
    assert rest == ("" if len(names) == 3 else " (3 concepts)")
    assert diag.subjects == ("A", "B", "C")


def test_s2_witness_required_for_derived_affection():
    diags = check_source(
        "concept Calibrating specializes Reasoning\n"
        "instance m : Model\ninstance c : Calibrating\n"
        "fact isDataOf(m, c)\n")
    # isDataOf derives isAffectedBy; no PC fact witnesses it.
    assert "S2" in error_codes(diags)
    # The finding is grounded at the asserted data fact, not the derived one.
    s2 = next(d for d in diags if d.code == "S2")
    assert s2.span.line == 4


@pytest.mark.parametrize("seed", range(20))
def test_s2_matches_a_scan_of_every_ground(seed):
    """S2 reads only the facts of particularizing relations; a scan of every
    ground for the findings, and of every ground for a witness, agrees."""
    for onto in (random_saturation_model(seed), random_shared_model(seed)):
        facts = saturate(onto, compute_closure(onto))
        expected, grounds = set(), grounds_of(facts)
        for g in grounds:
            rel = onto.relations[g.relation]
            parent = onto.relations.get(rel.particularizes)
            if rel.temporal or parent is None or not parent.temporal:
                continue
            if not any(w.relation == parent.name and w.args == g.args for w in grounds):
                expected.add((f"fact {g.render()} has no witnessing "
                              f"{parent.name}({', '.join(g.args)}, t) fact", g.args))
        found = check_s2(facts)
        assert len(found) == len(expected)
        assert {(d.message, d.subjects) for d in found} == expected, seed
        for d in found:  # grounded at an asserted fact on the same arguments
            assert d.span in {onto.source.span(f.line) for f in onto.facts.values()
                              if f.args == d.subjects}
    assert expected, seed  # the shared model always misses some witness


@pytest.mark.parametrize("seed", range(40))
def test_s1_matches_a_signature_scan_of_every_ground(seed):
    """S1 tests masks per distinct signature of a chain; a test of every
    materialised ground, grounded through its trace, gives the same findings."""
    total = 0
    for onto in (particularization_model(seed), random_saturation_model(seed),
                 random_shared_model(seed)):
        facts = saturate(onto, compute_closure(onto))
        found = Counter((d.message, d.span, d.subjects)
                        for d in check_s1(facts))
        expected = Counter()
        for g in grounds_of(facts):
            rel = onto.relations[g.relation]
            bad = [f"'{arg}' is not a {' or '.join(union)}"
                   for arg, union in zip(g.args, rel.signature)
                   if not set(union) & facts.concepts_of(arg)]
            if bad:
                source = g
                while facts.trace[source].rule != RULE_ASSERTED:
                    source = facts.trace[source].premises[0]
                axiom = SIGNATURE_AXIOM.get(g.relation)
                expected[(f"fact {g.render()} violates the signature of {g.relation}: "
                          f"{'; '.join(bad)}" + (f" (violates {axiom})" if axiom else ""),
                          onto.source.span(onto.facts[source].line), g.args)] += 1
        assert found == expected, seed
        total += sum(found.values())
    assert total, seed


@pytest.mark.parametrize("family", ["corpus", "particularization", "saturation"])
def test_checks_never_materialise_every_ground(family):
    models = {
        "corpus": lambda: [load_corpus_file(name) for name in
                           ("car_diagnosis.oks", "calibration.oks", "a4_a5_a6.oks")],
        "particularization": lambda: [particularization_model(seed) for seed in range(40)],
        "saturation": lambda: [random_saturation_model(seed) for seed in range(40)],
    }[family]()
    for onto in models:
        facts = saturate(onto, compute_closure(onto))
        for _, fn in _VALIDATOR_CHECKS:
            if fn is not None:
                fn(facts)
        check_temporal_participation(facts)
        check_labels(facts)
        assert "trace" not in facts.__dict__  # the engine holds every ground


def test_user_annotation_conflicts_are_e6():
    diags = check_source(
        "concept Widget specializes NPOB\n"
        "annotate Widget rigidity rigid\n"
        "annotate Widget rigidity anti-rigid\n")
    assert error_codes(diags) == ["E6"]
    # The same axis re-set to the same value collapses silently.
    assert check_source(
        "concept Widget specializes NPOB\n"
        "annotate Widget rigidity rigid\n"
        "annotate Widget rigidity rigid\n") == []


# --- temporal participation ---------------------------------------------------


def temporal_codes(onto):
    return check_temporal_participation(saturate(onto, compute_closure(onto)))


@pytest.mark.parametrize("seed", range(20))
def test_temporal_check_on_shared_perdurants_matches_oracle(seed):
    onto, presence, participation, participants = shared_temporal_model(seed)
    per_perdurant = {}
    for _, m, d in participants:
        per_perdurant.setdefault(d, set()).add(m)
    assert min(len(ms) for ms in per_perdurant.values()) >= 2
    diags = temporal_codes(onto)
    expected = set()
    for rel, m, d in participants:
        mode = "data" if rel == "isDataOf" else "result"
        if not temporal_oracle(presence[d], participation[(m, d)], mode):
            expected.add(("A13" if mode == "data" else "R13", (m, d)))
    assert {(d.code, d.subjects) for d in diags
            if d.severity is Severity.ERROR} == expected
    assert {d.subjects for d in diags if d.severity is Severity.WARNING} == \
        {(d,) for d in per_perdurant if not presence[d]}


def test_a13_witness_found():
    onto = temporal_model({0, 1, 2}, {0, 1}, set(), [("isDataOf", "m1")])
    assert temporal_codes(onto) == []


def test_a13_no_witness():
    onto = temporal_model({0, 1, 2}, {1}, set(), [("isDataOf", "m1")])
    diags = temporal_codes(onto)
    assert error_codes(diags) == ["A13"]
    assert "presence time 0" in diags[0].message


def test_a13_vacuous_without_presence_record():
    onto = temporal_model(set(), {1}, set(), [("isDataOf", "m1")])
    diags = temporal_codes(onto)
    assert [d.code for d in diags] == ["A13"]
    assert diags[0].severity is Severity.WARNING


def test_r13_dual():
    onto = temporal_model({0, 1}, {1}, set(), [("isResultOf", "m1")])
    assert temporal_codes(onto) == []
    onto = temporal_model({0, 1}, {0}, set(), [("isResultOf", "m1")])
    assert error_codes(temporal_codes(onto)) == ["R13"]


@pytest.mark.parametrize("seed", range(30))
def test_temporal_checker_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    universe = (0, 1, 2)
    pre = {t for t in universe if rng.random() < 0.6}
    pc1 = {t for t in universe if rng.random() < 0.5}
    mode = rng.choice(["data", "result"])
    rel = "isDataOf" if mode == "data" else "isResultOf"
    onto = temporal_model(pre, pc1, set(), [(rel, "m1")])
    diags = temporal_codes(onto)
    failed = any(d.severity is Severity.ERROR for d in diags)
    assert failed == (not temporal_oracle(pre, pc1, mode)), (seed, pre, pc1, mode)


def asserted_span(onto, facts, g):
    """Span of the asserted fact that `g`'s trace reaches through R-up."""
    while facts.trace[g].rule != RULE_ASSERTED:
        g = facts.trace[g].premises[0]
    return onto.source.span(onto.facts[g].line)


def temporal_particularization_model(seed: int):
    """particularization_source(seed), whose user relations reach isDataOf
    and PC at random, plus a relation under isResultOf and random PRE, PC
    and result facts on its instances."""
    rng = random.Random(f"temporal-particularization-{seed}")
    text = particularization_source(seed)
    instances = [line.split()[1] for line in text.splitlines() if line.startswith("instance ")]
    lines = ["relation Yields particularizes isResultOf signature (Content, AC)",
             "relation Attends particularizes PC signature (ED, PD) temporal"]
    for y in instances:
        lines += [f"fact PRE({y}, {t})" for t in rng.sample(range(3), k=rng.randint(0, 2))]
    for _ in range(rng.randint(0, 4)):
        x, y = rng.sample(instances, 2)
        lines.append(f"fact {rng.choice(['isResultOf', 'Yields'])}({x}, {y})")
    for _ in range(rng.randint(0, 8)):
        x, y = rng.sample(instances, 2)
        lines.append(f"fact {rng.choice(['PC', 'Attends'])}({x}, {y}, {rng.randint(0, 2)})")
    onto, diags = load_source(text + "\n".join(lines) + "\n")
    assert onto is not None, [d.render() for d in diags]
    return onto


def test_temporal_check_matches_a_scan_of_every_ground():
    """A13/R13 read the data and result facts at or below each relation;
    a scan of every materialised ground, grounded through its trace,
    gives the same errors, the same vacuous warnings and the same spans.
    Across the seeds, data facts map up from user relations and each code
    gives both an error and a warning."""
    cases, mapped = Counter(), 0
    for seed in range(100):
        onto = temporal_particularization_model(seed)
        facts = saturate(onto, compute_closure(onto))
        grounds = grounds_of(facts)
        mapped += sum(1 for g in grounds if g.relation == "isDataOf" and g not in onto.facts)
        expected, warned = Counter(), set()
        for rel, code, pick, side in (("isDataOf", "A13", min, "first"),
                                      ("isResultOf", "R13", max, "last")):
            for g in sorted(g for g in grounds if g.relation == rel):
                x, y = g.args
                presence = {p.time for p in grounds if p.relation == "PRE" and p.args == (y,)}
                if not presence:
                    if y not in warned:
                        warned.add(y)
                        expected[(code, Severity.WARNING,
                                  f"perdurant '{y}' has participants but no declared "
                                  f"presence record; {code} holds vacuously",
                                  asserted_span(onto, facts, g), (y,))] += 1
                elif not any(p.relation == "PC" and p.args == (x, y)
                             and p.time == pick(presence) for p in grounds):
                    expected[(code, Severity.ERROR,
                              f"{g.render()}: '{x}' does not participate in '{y}' at its "
                              f"{side} presence time {pick(presence)}",
                              asserted_span(onto, facts, g), (x, y))] += 1
        found = Counter((d.code, d.severity, d.message, d.span, d.subjects) for d in
                        check_temporal_participation(facts))
        assert found == expected, seed
        cases.update((code, severity) for code, severity, *_ in found)
    assert mapped
    assert set(cases) == {(code, severity) for code in ("A13", "R13")
                          for severity in (Severity.ERROR, Severity.WARNING)}, cases


@pytest.mark.parametrize("family", sorted(FIXPOINT_MODELS))
def test_ad35_matches_a_scan_of_every_ground(family):
    """Ad35 is a set difference; a scan of every instance's memberships
    against every materialised PC ground gives the same findings."""
    build, seeds = FIXPOINT_MODELS[family]
    for seed in seeds:
        onto = build(seed)
        facts = saturate(onto, compute_closure(onto))
        grounds = grounds_of(facts)
        expected = Counter(
            (f"endurant instance '{name}' participates in no perdurant",
             onto.source.span(inst.line), (name,))
            for name, inst in onto.instances.items()
            if kernel.ENDURANT in facts.concepts_of(name)
            and not any(g.relation == kernel.REL_PARTICIPATION and g.args[0] == name
                        for g in grounds))
        found = check_ad35(facts)
        assert Counter((d.message, d.span, d.subjects) for d in found) == expected, (family, seed)
        assert all(d.severity is Severity.WARNING for d in found)


# --- whole-validator properties -------------------------------------------------


def test_validate_is_deterministic_across_declaration_orders():
    from helpers import CORPUS
    text = (CORPUS / "car_diagnosis.oks").read_text(encoding="utf-8")
    decls, _ = parse(text, "car")
    source = SourceText("car", text)
    reference = None
    for seed in range(4):
        shuffled = decls[:]
        random.Random(seed).shuffle(shuffled)
        onto, _ = merge_with_kernel(shuffled, source)
        result = validate(onto)
        if reference is None:
            reference = result
        assert result == reference


def test_registry_is_closed_and_unique():
    assert len(set(REGISTRY)) == len(REGISTRY)
    for code in VALIDATOR_CODES:
        assert code in REGISTRY
    for code in ("P1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "C1"):
        assert code in REGISTRY


def test_validation_does_not_mutate_the_ontology(car_ontology):
    before = ontology_content(car_ontology)
    validate(car_ontology)
    assert ontology_content(car_ontology) == before
