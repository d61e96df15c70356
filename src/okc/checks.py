"""Well-formedness, axiom and labeling checks over a saturated ontology.

Validator codes:

    W1    subsumption taxonomy must be acyclic
    W2    declared disjointness coherence (concept- and instance-level)
    S1    relation signature conformance (also covers Ad33, A9, A12)
    S2    an atemporal particularization of a temporal relation needs a
          witnessing parent fact (A10)
    A3    no instance is both a Reasoning and a Communication
    A13   a data participant is present from the perdurant's first
          declared presence time on (warning when no presence is declared)
    R13   dual for result participants: present through the last
          declared presence time
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

Parse, load and compile stages use P1, E1..E7 and C1; those are emitted
by the frontend, the loader and the bundle compiler but registered here
so the code registry is closed in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import kernel
from .model import (
    AXIS_DEPENDENCE,
    AXIS_IDENTITY,
    AXIS_RIGIDITY,
    Diagnostic,
    KNOWLEDGE_ROLE_PRIMITIVES,
    LABEL_FAMILY,
    MetaLabel,
    Ontology,
    Severity,
    sort_diagnostics,
)
from .reasoner import (
    FactBase,
    SubsumptionClosure,
    compute_closure,
    find_subsumption_cycles,
    saturate,
)


@dataclass(frozen=True)
class CheckInfo:
    code: str
    severity: Severity
    description: str
    axioms: tuple[str, ...] = ()
    stage: str = "validate"  # parse | load | validate | compile


@dataclass(frozen=True)
class CheckContext:
    ontology: Ontology
    closure: SubsumptionClosure
    facts: FactBase


CheckFn = Callable[[CheckContext], list[Diagnostic]]

# Axiom cited by S1 per kernel relation, for messages and traceability.
SIGNATURE_AXIOM = {
    kernel.REL_PARTICIPATION: "Ad33",
    kernel.REL_SUBJECT: "A9",
    kernel.REL_DATA: "A12",
}


def _error(code: str, message: str, span, subjects=()) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, tuple(subjects))


def _warning(code: str, message: str, span, subjects=()) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span, tuple(subjects))


# --- structural checks -------------------------------------------------------


def check_w1(ontology: Ontology) -> list[Diagnostic]:
    diags = []
    for cycle in find_subsumption_cycles(ontology):
        span = ontology.concepts[cycle[0]].span
        diags.append(_error(
            "W1", f"subsumption cycle: {' -> '.join(cycle)}", span, cycle))
    return diags


def check_w2(ctx: CheckContext) -> list[Diagnostic]:
    diags = []
    a3_pair = tuple(sorted((kernel.REASONING, kernel.COMMUNICATION)))
    for pair in sorted(ctx.ontology.disjoints):
        a, b = pair
        decl = ctx.ontology.disjoints[pair]
        overlap = (ctx.closure.descendants(a) & ctx.closure.descendants(b))
        for concept in sorted(overlap):
            diags.append(_error(
                "W2",
                f"'{concept}' is subsumed by both disjoint concepts '{a}' and '{b}'",
                ctx.ontology.concepts[concept].span, (concept, a, b)))
        if pair == a3_pair:
            continue  # instance level of this pair is owned by A3
        both = sorted(ctx.facts.instances_of.get(a, set())
                      & ctx.facts.instances_of.get(b, set()))
        for instance in both:
            span = ctx.ontology.instances[instance].span \
                if instance in ctx.ontology.instances else decl.span
            diags.append(_error(
                "W2",
                f"instance '{instance}' falls under both disjoint "
                f"concepts '{a}' and '{b}'",
                span, (instance, a, b)))
    return diags


def check_s1(ctx: CheckContext) -> list[Diagnostic]:
    diags = []
    for g in sorted(ctx.facts.grounds):
        rel = ctx.ontology.relations.get(g.relation)
        if rel is None:
            continue
        bad: list[str] = []
        for arg, union in zip(g.args, rel.signature):
            if not any(ctx.facts.has_member(arg, c) for c in union):
                bad.append(f"'{arg}' is not a {' or '.join(union)}")
        if bad:
            axiom = SIGNATURE_AXIOM.get(g.relation)
            suffix = f" (violates {axiom})" if axiom else ""
            diags.append(_error(
                "S1",
                f"fact {g.render()} violates the signature of "
                f"{g.relation}: {'; '.join(bad)}{suffix}",
                ctx.facts.span_of(g), g.args))
    return diags


def check_s2(ctx: CheckContext) -> list[Diagnostic]:
    diags = []
    for g in sorted(ctx.facts.grounds):
        rel = ctx.ontology.relations.get(g.relation)
        if rel is None or rel.temporal or rel.particularizes is None:
            continue
        parent = ctx.ontology.relations.get(rel.particularizes)
        if parent is None or not parent.temporal:
            continue
        witnessed = any(w.args == g.args
                        for w in ctx.facts.facts_with(parent.name, 0, g.args[0]))
        if not witnessed:
            diags.append(_error(
                "S2",
                f"fact {g.render()} has no witnessing "
                f"{parent.name}({', '.join(g.args)}, t) fact",
                ctx.facts.span_of(g), g.args))
    return diags


def check_a3(ctx: CheckContext) -> list[Diagnostic]:
    diags = []
    both = sorted(ctx.facts.instances_of.get(kernel.REASONING, set())
                  & ctx.facts.instances_of.get(kernel.COMMUNICATION, set()))
    for instance in both:
        span = ctx.ontology.instances[instance].span \
            if instance in ctx.ontology.instances else kernel.kernel_ontology().concepts[
                kernel.REASONING].span
        diags.append(_error(
            "A3",
            f"instance '{instance}' is both a Reasoning and a Communication",
            span, (instance,)))
    return diags


# --- temporal participation --------------------------------------------------


def check_temporal_participation(
    ontology: Ontology, facts: FactBase
) -> list[Diagnostic]:
    """Data participates from the first presence time (A13); results
    participate through the last one (R13).

    Witness times range over the perdurant's declared presence record,
    so each check reduces to participation at the first (resp. last)
    presence time.  A perdurant that has data or result participants but
    no presence record passes vacuously with a warning.
    """
    diags = []
    warned: set[str] = set()
    for rel_name, code, pick in (
        (kernel.REL_DATA, "A13", min),
        (kernel.REL_RESULT, "R13", max),
    ):
        for g in sorted(facts.facts_of(rel_name)):
            x, y = g.args
            presence = sorted(p.time for p in facts.facts_with(kernel.REL_PRESENCE, 0, y)
                              if p.time is not None)
            if not presence:
                if y not in warned:
                    warned.add(y)
                    diags.append(_warning(
                        code,
                        f"perdurant '{y}' has participants but no declared "
                        f"presence record; {code} holds vacuously",
                        facts.span_of(g), (y,)))
                continue
            edge = pick(presence)
            pcs = min(facts.facts_with(kernel.REL_PARTICIPATION, 0, x),
                      facts.facts_with(kernel.REL_PARTICIPATION, 1, y), key=len)
            participated = {p.time for p in pcs if p.args == (x, y)}
            side = "first" if pick is min else "last"
            if edge not in participated:
                diags.append(_error(
                    code,
                    f"{g.render()}: '{x}' does not participate in '{y}' at its "
                    f"{side} presence time {edge}",
                    facts.span_of(g), (x, y)))
    return diags


def check_ad35(ctx: CheckContext) -> list[Diagnostic]:
    diags = []
    participants = {g.args[0] for g in ctx.facts.facts_of(kernel.REL_PARTICIPATION)}
    for name in sorted(ctx.ontology.instances):
        if ctx.facts.has_member(name, kernel.ENDURANT) and name not in participants:
            diags.append(_warning(
                "Ad35",
                f"endurant instance '{name}' participates in no perdurant",
                ctx.ontology.instances[name].span, (name,)))
    return diags


# --- labeling checks ----------------------------------------------------------


def _sorted_labels(ontology: Ontology) -> list[MetaLabel]:
    return sorted(ontology.labels.values(), key=lambda lb: (lb.concept, lb.time, lb.primitive))


def check_labels(
    ontology: Ontology, closure: SubsumptionClosure, facts: FactBase
) -> list[Diagnostic]:
    """All per-label constraints (A7, A8, L2b, L3, L4) plus L5 and L6."""
    diags = []
    for lb in _sorted_labels(ontology):
        if lb.concept not in ontology.concepts:
            continue  # load error already reported
        if lb.primitive == "Task" and not closure.subsumes(kernel.REASONING, lb.concept):
            diags.append(_error(
                "A7",
                f"Task label on '{lb.concept}': only concepts under Reasoning "
                f"can be tasks",
                lb.span, (lb.concept,)))
        elif lb.primitive == "TransferFunction" and \
                not closure.subsumes(kernel.COMMUNICATION, lb.concept):
            diags.append(_error(
                "A8",
                f"TransferFunction label on '{lb.concept}': only concepts under "
                f"Communication can be transfer functions",
                lb.span, (lb.concept,)))
        elif lb.primitive == "Inference" and \
                not closure.subsumes(kernel.REASONING, lb.concept):
            diags.append(_error(
                "L2b",
                f"Inference label on '{lb.concept}': only concepts under "
                f"Reasoning can be inferences",
                lb.span, (lb.concept,)))
        elif lb.primitive in KNOWLEDGE_ROLE_PRIMITIVES:
            failures = _role_preconditions(ontology, closure, lb)
            if failures:
                diags.append(_error(
                    "L3",
                    f"{lb.primitive} label on '{lb.concept}': {'; '.join(failures)}",
                    lb.span, (lb.concept,)))
            else:
                failures = _role_identity(ontology, closure, lb)
                if failures:
                    diags.append(_error(
                        "L4",
                        f"{lb.primitive} label on '{lb.concept}': "
                        f"{'; '.join(failures)}",
                        lb.span, (lb.concept,)))
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
    ontology: Ontology, closure: SubsumptionClosure, lb: MetaLabel
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
        formal_here = [
            other.concept for other in ontology.labels.values()
            if other.primitive == "FormalKnowledgeRole" and other.time == lb.time
            and other.concept != lb.concept
            and closure.subsumes(other.concept, lb.concept)]
        if not formal_here:
            failures.append(
                f"no subsumer is labeled FormalKnowledgeRole at time {lb.time}")
        supplies_identity = [
            up for up in closure.ancestors(lb.concept)
            if up != lb.concept
            and ontology.annotation_value(up, AXIS_RIGIDITY) == "rigid"
            and ontology.annotation_value(up, AXIS_IDENTITY) == "carries"]
        if not supplies_identity:
            failures.append("no subsumer is a rigid identity-carrying type")
    elif lb.primitive == "Input":
        if not closure.subsumes(kernel.DATA, lb.concept):
            failures.append("Input labels classify Data roles")
    elif lb.primitive == "Output":
        if not closure.subsumes(kernel.RESULT, lb.concept):
            failures.append("Output labels classify Result roles")
    return failures


def _check_l5(ontology: Ontology) -> list[Diagnostic]:
    diags = []
    grouped: dict[tuple[str, int, str], list[MetaLabel]] = {}
    for lb in _sorted_labels(ontology):
        family = LABEL_FAMILY.get(lb.primitive)
        if family in ("reasoning", "domain"):
            grouped.setdefault((lb.concept, lb.time, family), []).append(lb)
    for (concept, time, family), labels in sorted(grouped.items()):
        if len(labels) > 1:
            prims = sorted(lb.primitive for lb in labels)
            diags.append(_error(
                "L5",
                f"'{concept}' carries exclusive labels {', '.join(prims)} "
                f"at time {time}",
                labels[-1].span, (concept, *prims)))
    return diags


def _check_l6(ontology: Ontology, closure: SubsumptionClosure) -> list[Diagnostic]:
    diags = []
    anti_rigid = sorted(
        c for c in ontology.concepts
        if ontology.annotation_value(c, AXIS_RIGIDITY) == "anti-rigid")
    for upper in anti_rigid:
        for lower in sorted(closure.descendants(upper)):
            if lower == upper:
                continue
            if ontology.annotation_value(lower, AXIS_RIGIDITY) == "rigid":
                ann = ontology.annotations[upper][AXIS_RIGIDITY]
                diags.append(_error(
                    "L6",
                    f"anti-rigid concept '{upper}' subsumes rigid "
                    f"concept '{lower}'",
                    ann.span, (upper, lower)))
    return diags


# --- registry and driver -----------------------------------------------------

FRONTEND_CODES: tuple[CheckInfo, ...] = (
    CheckInfo("P1", Severity.ERROR, "syntax or lexical error", (), "parse"),
    CheckInfo("E1", Severity.ERROR, "duplicate declaration name", (), "load"),
    CheckInfo("E2", Severity.ERROR, "redefinition of a kernel name", (), "load"),
    CheckInfo("E3", Severity.ERROR,
              "reference to an undeclared or wrong-kind name", (), "load"),
    CheckInfo("E4", Severity.ERROR,
              "malformed declaration (arity, temporality, value)", (), "load"),
    CheckInfo("E5", Severity.ERROR, "duplicate meta-label triple", (), "load"),
    CheckInfo("E6", Severity.ERROR,
              "conflicting annotation for a meta-property axis", (), "load"),
    CheckInfo("E7", Severity.ERROR,
              "invalid particularization (cycle or arity mismatch)", (), "load"),
    CheckInfo("C1", Severity.WARNING,
              "no labels effective at the compile snapshot", (), "compile"),
)

_VALIDATOR_CHECKS: tuple[tuple[CheckInfo, Optional[CheckFn]], ...] = (
    (CheckInfo("W1", Severity.ERROR, "subsumption taxonomy acyclicity"), None),
    (CheckInfo("W2", Severity.ERROR, "declared disjointness coherence"), check_w2),
    (CheckInfo("S1", Severity.ERROR, "relation signature conformance",
               ("Ad33", "A9", "A12")), check_s1),
    (CheckInfo("S2", Severity.ERROR, "participation witness for atemporal "
               "particularizations of temporal relations", ("A10",)), check_s2),
    (CheckInfo("A3", Severity.ERROR,
               "Reasoning/Communication instance disjointness", ("A3",)), check_a3),
    (CheckInfo("A13", Severity.ERROR, "data participates from the start",
               ("A13",)), None),
    (CheckInfo("R13", Severity.ERROR, "result participates at the end"), None),
    (CheckInfo("Ad35", Severity.WARNING, "endurant participation",
               ("Ad35",)), check_ad35),
    (CheckInfo("A7", Severity.ERROR, "Task labels classify Reasonings (L1)",
               ("A7",)), None),
    (CheckInfo("A8", Severity.ERROR,
               "TransferFunction labels classify Communications (L2)",
               ("A8",)), None),
    (CheckInfo("L2b", Severity.ERROR, "Inference labels classify Reasonings"), None),
    (CheckInfo("L3", Severity.ERROR, "knowledge-role family preconditions"), None),
    (CheckInfo("L4", Severity.ERROR, "identity-criterion coherence"), None),
    (CheckInfo("L5", Severity.ERROR, "label exclusivity per time point"), None),
    (CheckInfo("L6", Severity.ERROR, "rigidity subsumption coherence"), None),
)

REGISTRY: dict[str, CheckInfo] = {
    **{info.code: info for info in FRONTEND_CODES},
    **{info.code: info for info, _ in _VALIDATOR_CHECKS},
}

VALIDATOR_CODES: tuple[str, ...] = tuple(info.code for info, _ in _VALIDATOR_CHECKS)


def validate(ontology: Ontology) -> list[Diagnostic]:
    """Run every check; deterministic, sorted by (file, line, code)."""
    w1 = check_w1(ontology)
    if w1:
        # Closure-dependent checks need an acyclic taxonomy.
        return sort_diagnostics(w1)
    closure = compute_closure(ontology)
    facts = saturate(ontology, closure)
    ctx = CheckContext(ontology, closure, facts)
    diags: list[Diagnostic] = []
    for info, fn in _VALIDATOR_CHECKS:
        if fn is not None:
            diags.extend(fn(ctx))
    diags.extend(check_temporal_participation(ontology, facts))
    diags.extend(check_labels(ontology, closure, facts))
    return sort_diagnostics(diags)
