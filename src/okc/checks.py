"""Well-formedness, axiom and labeling checks over a saturated ontology.

Codes, in `REGISTRY` order.  The frontend, the loader and the bundle
compiler emit the first nine; the checks here emit the rest.

    P1    syntax or lexical error
    E1    duplicate declaration name
    E2    redefinition of a kernel name
    E3    reference to an undeclared or wrong-kind name
    E4    malformed declaration (arity, temporality, value)
    E5    duplicate meta-label triple
    E6    conflicting annotation for a meta-property axis
    E7    invalid particularization (cycle or arity mismatch)
    C1    no labels effective at the compile snapshot (warning)
    W1    subsumption taxonomy must be acyclic
    W2    declared disjointness coherence (concept- and instance-level)
    S1    relation signature conformance (also covers Ad33, A9, A12)
    S2    an atemporal particularization of a temporal relation needs a
          witnessing parent fact (A10)
    A3    no instance is both a Reasoning and a Communication
    A13   a data participant is present from the perdurant's first
          declared presence time on (warning when no presence is declared)
    R13   dual for result participants: present through the last
          declared presence time (warning when no presence is declared)
    Ad35  endurant instances should participate in some perdurant (warning)
    A7    Task labels only classify concepts under Reasoning
    A8    TransferFunction labels only classify concepts under Communication
    L2b   Inference labels only classify concepts under Reasoning
    L3    knowledge-role family labels need a role concept: under Data or
          Result, annotated anti-rigid and dependent
    L4    identity coherence per role flavor (runs only where L3 holds)
    L5    per time point: at most one of Task/Inference, at most one of
          DomainConcept/knowledge-role family
    L6    an anti-rigid concept must not subsume a rigid one

Every validator check but W1 is a `FactBase -> list[Diagnostic]`
function, reading the ontology and closure the fact base was saturated
from; W1 takes the ontology, as it runs only when the closure fails.
A check returns its findings in any order: `validate` sorts them, and
equal sort keys mean equal findings, so the output depends only on the
set of findings.  W1 returns its findings sorted, as `okc explain` prints
them as they come.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import kernel
from .model import (
    AXIS_DEPENDENCE,
    AXIS_IDENTITY,
    AXIS_RIGIDITY,
    Diagnostic,
    Ground,
    KNOWLEDGE_ROLE_PRIMITIVES,
    LABEL_FAMILY,
    MetaLabel,
    Ontology,
    _error,
    _warning,
    direct_supers,
    sort_diagnostics,
)
from .reasoner import (
    FactBase,
    SubsumptionClosure,
    compute_closure,
    find_subsumption_cycles,
    saturate,
)


CheckFn = Callable[[FactBase], list[Diagnostic]]

# Axiom cited by S1 per kernel relation, for messages and traceability.
SIGNATURE_AXIOM = {
    kernel.REL_PARTICIPATION: "Ad33",
    kernel.REL_SUBJECT: "A9",
    kernel.REL_DATA: "A12",
}


# --- structural checks -------------------------------------------------------


W1_LISTED = 10  # members a W1 message names; its subjects list them all


def check_w1(ontology: Ontology) -> list[Diagnostic]:
    """One finding per cycle component, at its least member.  The message
    names a shortest cycle of declared edges through that member, found
    breadth-first with parents in name order, then the component's size
    if it names fewer than all."""
    diags = []
    for component in find_subsumption_cycles(ontology):
        start, inside = component[0], set(component)
        came_from: dict[str, str] = {}
        queue = [start]
        for node in queue:
            if start in came_from:
                break
            for parent in sorted(inside.intersection(direct_supers(ontology.concepts[node]))):
                if parent not in came_from:
                    came_from[parent] = node
                    queue.append(parent)
        cycle = [came_from[start]]
        while cycle[-1] != start:
            cycle.append(came_from[cycle[-1]])
        listed = cycle[::-1][:W1_LISTED]
        members = " -> ".join(listed)
        if len(listed) < len(component):
            members += f" -> ... ({len(component)} concepts)"
        span = ontology.source.span(ontology.concepts[start].line)
        diags.append(_error("W1", f"subsumption cycle: {members}", span, *component))
    return sort_diagnostics(diags)


def check_w2(facts: FactBase) -> list[Diagnostic]:
    """Concept level: one pass over the concepts, each meeting its disjoint-pair
    ancestors if it has at least two.  Instance level: one check per pair."""
    onto, closure = facts.ontology, facts.closure
    at, diags = onto.source.span, []
    partners: dict[str, set[str]] = {}
    for a, b in onto.disjoints:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    among = closure.mask(partners)
    for concept in closure.concepts:
        if closure.ancestor_bits(concept, among).bit_count() < 2:
            continue
        above = closure.ancestors(concept, among)
        for a in above:
            for b in partners[a] & above:
                if a <= b:  # each pair once, in the order of its key
                    diags.append(_error(
                        "W2",
                        f"'{concept}' is subsumed by both disjoint concepts '{a}' and '{b}'",
                        at(onto.concepts[concept].line), concept, a, b))
    instances = facts.disjoint_instances
    for a, b in onto.disjoints:
        if {a, b} == {kernel.REASONING, kernel.COMMUNICATION}:
            continue  # instance level of this pair is owned by A3
        for instance in instances.get(a, set()) & instances.get(b, set()):
            diags.append(_error(
                "W2",
                f"instance '{instance}' falls under both disjoint "
                f"concepts '{a}' and '{b}'",
                at(onto.instances[instance].line), instance, a, b))
    return diags


def check_s1(facts: FactBase) -> list[Diagnostic]:
    """A diagnostic per ground that `FactBase.off_signature` finds by set difference."""
    at, diags = facts.ontology.source.span, []
    for g in facts.off_signature():
        rel = facts.ontology.relations[g.relation]
        bad = [f"'{arg}' is not a {' or '.join(union)}"
               for arg, union in zip(g.args, rel.signature)
               if not any(facts.has_member(arg, c) for c in union)]
        axiom = SIGNATURE_AXIOM.get(g.relation)
        suffix = f" (violates {axiom})" if axiom else ""
        diags.append(_error(
            "S1",
            f"fact {g.render()} violates the signature of "
            f"{g.relation}: {'; '.join(bad)}{suffix}",
            at(facts.line_of(g)), *g.args))
    return diags


def check_s2(facts: FactBase) -> list[Diagnostic]:
    """The arguments of the facts of each atemporal particularization of a
    temporal relation, minus those of its parent's facts."""
    at, diags = facts.ontology.source.span, []
    witnessed: dict[str, set[tuple[str, ...]]] = {}  # parent -> the arguments of its facts
    for rel in facts.ontology.relations.values():
        parent = facts.ontology.relations.get(rel.particularizes)
        if rel.temporal or parent is None or not parent.temporal:
            continue
        if parent.name not in witnessed:
            witnessed[parent.name] = {w.args for w in facts.under(parent.name)}
        for args in {g.args for g in facts.under(rel.name)} - witnessed[parent.name]:
            g = Ground(rel.name, args, None)
            diags.append(_error(
                "S2",
                f"fact {g.render()} has no witnessing "
                f"{parent.name}({', '.join(args)}, t) fact",
                at(facts.line_of(g)), *args))
    return diags


def check_a3(facts: FactBase) -> list[Diagnostic]:
    at, diags = facts.ontology.source.span, []
    instances = facts.disjoint_instances
    for instance in instances.get(kernel.REASONING, set()) \
            & instances.get(kernel.COMMUNICATION, set()):
        diags.append(_error(
            "A3",
            f"instance '{instance}' is both a Reasoning and a Communication",
            at(facts.ontology.instances[instance].line), instance))
    return diags


# --- temporal participation --------------------------------------------------


def check_temporal_participation(facts: FactBase) -> list[Diagnostic]:
    """Data participates from the first presence time (A13); results
    participate through the last one (R13).

    Witness times range over the perdurant's declared presence record,
    so each check reduces to participation at the first (resp. last)
    presence time: the findings are the required `PC(x, y, t)` facts
    minus the `PC` facts.  A perdurant that has data or result
    participants but no presence record passes vacuously with a warning,
    at its least data fact, or else its least result fact.
    """
    presence: dict[str, list[int]] = {}
    for p in facts.under(kernel.REL_PRESENCE):  # temporal: every time is set
        presence.setdefault(p.args[0], []).append(p.time)
    edges = {y: (min(times), max(times)) for y, times in presence.items()}
    # only temporal relations R-up into the temporal PC, and they keep the time
    participations = {(g.args, g.time) for g in facts.under(kernel.REL_PARTICIPATION)}
    at, diags = facts.ontology.source.span, []
    warned: set[str] = set()
    for rel_name, code, side, end in ((kernel.REL_DATA, "A13", "first", 0),
                                      (kernel.REL_RESULT, "R13", "last", 1)):
        pairs = {g.args for g in facts.under(rel_name)}
        required = {((x, y), edges[y][end]) for x, y in pairs if y in edges}
        for (x, y), edge in required - participations:
            g = Ground(rel_name, (x, y), None)
            diags.append(_error(
                code,
                f"{g.render()}: '{x}' does not participate in '{y}' at its "
                f"{side} presence time {edge}",
                at(facts.line_of(g)), x, y))
        for y, x in sorted((y, x) for x, y in pairs if y not in edges):
            if y not in warned:  # the least participant of y comes first
                warned.add(y)
                diags.append(_warning(
                    code,
                    f"perdurant '{y}' has participants but no declared "
                    f"presence record; {code} holds vacuously",
                    at(facts.line_of(Ground(rel_name, (x, y), None))), y))
    return diags


def check_ad35(facts: FactBase) -> list[Diagnostic]:
    """The endurant instances minus the first arguments of `PC` facts."""
    participants = {g.args[0] for g in facts.under(kernel.REL_PARTICIPATION)}
    at = facts.ontology.source.span
    return [_warning("Ad35", f"endurant instance '{name}' participates in no perdurant",
                     at(facts.ontology.instances[name].line), name)
            for name in facts.instances_of(kernel.ENDURANT) - participants]


# --- labeling checks ----------------------------------------------------------


# primitive -> (code, required ancestor, plural noun) of its placement rule
_PLACEMENT: dict[str, tuple[str, str, str]] = {
    "Task": ("A7", kernel.REASONING, "tasks"),
    "TransferFunction": ("A8", kernel.COMMUNICATION, "transfer functions"),
    "Inference": ("L2b", kernel.REASONING, "inferences"),
}


def check_labels(facts: FactBase) -> list[Diagnostic]:
    """All per-label constraints (A7, A8, L2b, L3, L4) plus L5 and L6."""
    ontology, closure = facts.ontology, facts.closure
    at, diags = ontology.source.span, []
    formal_at: dict[int, int] = {}  # time -> bitset of the concepts labeled FormalKnowledgeRole
    for lb in ontology.labels.values():
        if lb.primitive == "FormalKnowledgeRole":
            formal_at[lb.time] = formal_at.get(lb.time, 0) | closure.mask((lb.concept,))
    identity_types = closure.mask(
        c for c in ontology.annotations
        if ontology.annotation_value(c, AXIS_RIGIDITY) == "rigid"
        and ontology.annotation_value(c, AXIS_IDENTITY) == "carries")
    for lb in ontology.labels.values():
        placement = _PLACEMENT.get(lb.primitive)
        if placement is not None:
            code, ancestor, noun = placement
            if not closure.subsumes(ancestor, lb.concept):
                diags.append(_error(
                    code,
                    f"{lb.primitive} label on '{lb.concept}': only concepts under "
                    f"{ancestor} can be {noun}",
                    at(lb.line), lb.concept))
        elif lb.primitive in KNOWLEDGE_ROLE_PRIMITIVES:
            failures = _role_preconditions(ontology, closure, lb)
            if failures:
                diags.append(_error(
                    "L3",
                    f"{lb.primitive} label on '{lb.concept}': {'; '.join(failures)}",
                    at(lb.line), lb.concept))
            else:
                failures = _role_identity(ontology, closure, lb, formal_at, identity_types)
                if failures:
                    diags.append(_error(
                        "L4",
                        f"{lb.primitive} label on '{lb.concept}': "
                        f"{'; '.join(failures)}",
                        at(lb.line), lb.concept))
    diags.extend(_check_l5(ontology))
    diags.extend(_check_l6(ontology, closure))
    return diags


def _role_preconditions(
    ontology: Ontology, closure: SubsumptionClosure, lb: MetaLabel
) -> list[str]:
    failures = []
    if not (closure.subsumes(kernel.DATA, lb.concept)
            or closure.subsumes(kernel.RESULT, lb.concept)):
        failures.append("the concept is not a participation role "
                        "(not under Data or Result)")
    if ontology.annotation_value(lb.concept, AXIS_RIGIDITY) != "anti-rigid":
        failures.append("the concept is not annotated anti-rigid")
    if ontology.annotation_value(lb.concept, AXIS_DEPENDENCE) != "dependent":
        failures.append("the concept is not annotated dependent")
    return failures


def _role_identity(
    ontology: Ontology, closure: SubsumptionClosure, lb: MetaLabel,
    formal_at: dict[int, int], identity_types: int
) -> list[str]:
    failures = []
    identity = ontology.annotation_value(lb.concept, AXIS_IDENTITY)
    if lb.primitive == "FormalKnowledgeRole":
        if identity != "none":
            failures.append("a formal knowledge role must be annotated "
                            "identity none")
    elif lb.primitive == "MaterialKnowledgeRole":
        if identity != "carries":
            failures.append("a material knowledge role must be annotated "
                            "identity carries")
        others = ~closure.mask((lb.concept,))
        if not closure.ancestors(lb.concept, formal_at.get(lb.time, 0) & others):
            failures.append(
                f"no subsumer is labeled FormalKnowledgeRole at time {lb.time}")
        if not closure.ancestors(lb.concept, identity_types & others):
            failures.append("no subsumer is a rigid identity-carrying type")
    elif lb.primitive == "Input":
        if not closure.subsumes(kernel.DATA, lb.concept):
            failures.append("Input labels classify Data roles")
    elif lb.primitive == "Output":
        if not closure.subsumes(kernel.RESULT, lb.concept):
            failures.append("Output labels classify Result roles")
    return failures


def _check_l5(ontology: Ontology) -> list[Diagnostic]:
    """Each finding takes the span of the label whose primitive sorts last
    in its group."""
    at, diags = ontology.source.span, []
    grouped: dict[tuple[str, int, str], list[MetaLabel]] = {}
    for lb in ontology.labels.values():
        family = LABEL_FAMILY.get(lb.primitive)
        if family in ("reasoning", "domain"):
            grouped.setdefault((lb.concept, lb.time, family), []).append(lb)
    for (concept, time, family), labels in grouped.items():
        if len(labels) > 1:
            prims = sorted(lb.primitive for lb in labels)
            last = max(labels, key=lambda lb: lb.primitive)
            diags.append(_error(
                "L5",
                f"'{concept}' carries exclusive labels {', '.join(prims)} "
                f"at time {time}",
                at(last.line), concept, *prims))
    return diags


def _check_l6(ontology: Ontology, closure: SubsumptionClosure) -> list[Diagnostic]:
    at, diags = ontology.source.span, []
    rigidity = {c: ontology.annotation_value(c, AXIS_RIGIDITY) for c in ontology.annotations}
    anti_rigid = closure.mask(c for c, value in rigidity.items() if value == "anti-rigid")
    for lower in (c for c, value in rigidity.items() if value == "rigid"):
        for upper in closure.ancestors(lower, anti_rigid):
            diags.append(_error(
                "L6",
                f"anti-rigid concept '{upper}' subsumes rigid "
                f"concept '{lower}'",
                at(ontology.annotations[upper][AXIS_RIGIDITY].line), upper, lower))
    return diags


# --- registry and driver -----------------------------------------------------

_VALIDATOR_CHECKS: tuple[tuple[str, Optional[CheckFn]], ...] = (
    ("W1", None),
    ("W2", check_w2),
    ("S1", check_s1),
    ("S2", check_s2),
    ("A3", check_a3),
    ("A13", None),
    ("R13", None),
    ("Ad35", check_ad35),
    ("A7", None),
    ("A8", None),
    ("L2b", None),
    ("L3", None),
    ("L4", None),
    ("L5", None),
    ("L6", None),
)

REGISTRY: tuple[str, ...] = (
    "P1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "C1",
    *(code for code, _ in _VALIDATOR_CHECKS),
)


def validate(ontology: Ontology) -> list[Diagnostic]:
    """Run every check; the findings sorted by `Diagnostic.sort_key`."""
    try:
        closure = compute_closure(ontology)
    except ValueError:  # a cycle: closure-dependent checks need an acyclic taxonomy
        return check_w1(ontology)
    facts = saturate(ontology, closure)
    diags: list[Diagnostic] = []
    for _, fn in _VALIDATOR_CHECKS:
        if fn is not None:
            diags.extend(fn(facts))
    diags.extend(check_temporal_participation(facts))
    diags.extend(check_labels(facts))
    return sort_diagnostics(diags)
