"""Built-in upper ontology preloaded into every model.

The kernel has four layers:

* foundational categories: particulars (PT) split into endurants (ED,
  further: POB/NPOB/MOB and the agentive APO/ASO) and perdurants (PD,
  further: EV/STV/ACC and actions AC);
* problem-solving actions: Reasoning, Interaction, Communication;
* mental-object categories: Document, Expression, and Content with its
  Proposition/IdaConcept branch (Message, Assertion, Model, Hypothesis,
  Complaint, Information, Discourse, Subject);
* participation roles: Patient, Data, Result, wired to the relations
  PC, PRE, isAgentOf, isAffectedBy, isDataOf, isResultOf, hasForSubject.

`IdaConcept` is the mental-object category usually called "concept";
the longer name avoids colliding with the modeling-level word.

Agentivity is not a kernel concept: it is the extensional union of APO
and ASO, expressed as the union signature position of `isAgentOf`.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterable, Optional

from .model import (
    AnnotationDecl,
    ConceptDecl,
    Declaration,
    Diagnostic,
    DisjointDecl,
    KERNEL_SOURCE,
    Ontology,
    RelationDecl,
    SourceText,
    AXIS_DEPENDENCE,
    AXIS_RIGIDITY,
    load,
)

# Relation names used by rules and checks.
REL_PARTICIPATION = "PC"
REL_PRESENCE = "PRE"
REL_AGENT = "isAgentOf"
REL_AFFECTED = "isAffectedBy"
REL_DATA = "isDataOf"
REL_RESULT = "isResultOf"
REL_SUBJECT = "hasForSubject"

# Concept names referenced from code.
ENDURANT = "ED"
ACTION = "AC"
AGENTIVE_UNION = ("APO", "ASO")
PROPOSITION = "Proposition"
IDA_CONCEPT = "IdaConcept"
SUBJECT = "Subject"
REASONING = "Reasoning"
INTERACTION = "Interaction"
COMMUNICATION = "Communication"
PATIENT = "Patient"
DATA = "Data"
RESULT = "Result"

# (name, parents)
_CONCEPTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("PT", ()),
    ("ED", ("PT",)),
    ("PD", ("PT",)),
    ("POB", ("ED",)),
    ("NPOB", ("ED",)),
    ("MOB", ("NPOB",)),
    ("APO", ("POB",)),
    ("ASO", ("NPOB",)),
    ("EV", ("PD",)),
    ("STV", ("PD",)),
    ("ACC", ("EV",)),
    ("AC", ("ACC",)),
    ("Reasoning", ("AC",)),
    ("Interaction", ("AC",)),
    ("Communication", ("Interaction",)),
    ("Document", ("POB",)),
    ("Expression", ("NPOB",)),
    ("Content", ("MOB",)),
    ("Proposition", ("Content",)),
    ("IdaConcept", ("Content",)),
    ("Subject", ("IdaConcept",)),
    ("Message", ("Proposition",)),
    ("Assertion", ("Proposition",)),
    ("Model", ("Proposition",)),
    ("Hypothesis", ("Proposition",)),
    ("Complaint", ("Message",)),
    ("Information", ("Message",)),
    ("Discourse", ("Expression",)),
    ("Patient", ("ED",)),
    ("Data", ("Patient", "Content")),
    ("Result", ("Patient", "Content")),
)

# (name, particularizes, signature, temporal)
_RELATIONS: tuple[tuple[str, Optional[str], tuple[tuple[str, ...], ...], bool], ...] = (
    (REL_PARTICIPATION, None, (("ED",), ("PD",)), True),
    (REL_PRESENCE, None, (("PD",),), True),
    (REL_AGENT, None, (AGENTIVE_UNION, ("AC",)), False),
    (REL_AFFECTED, REL_PARTICIPATION, (("ED",), ("PD",)), False),
    (REL_DATA, REL_AFFECTED, (("Content",), ("AC",)), False),
    (REL_RESULT, REL_AFFECTED, (("Content",), ("AC",)), False),
    (REL_SUBJECT, None, (("Proposition",), ("IdaConcept",)), False),
)

_DISJOINT: tuple[tuple[str, str], ...] = (
    ("ED", "PD"),
    ("Reasoning", "Communication"),
)

_RIGID = ("PT", "ED", "PD", "POB", "NPOB", "MOB", "APO", "ASO", "EV", "STV", "ACC", "AC")
_PARTICIPATION_ROLES = ("Patient", "Data", "Result")


KERNEL_DECLARATIONS: tuple[Declaration, ...] = (
    *(ConceptDecl(name, parents) for name, parents in _CONCEPTS),
    *(RelationDecl(name, signature, temporal=temporal, particularizes=parent)
      for name, parent, signature, temporal in _RELATIONS),
    *(DisjointDecl(a, b) for a, b in _DISJOINT),
    *(AnnotationDecl(name, AXIS_RIGIDITY, "rigid") for name in _RIGID),
    *(decl for name in _PARTICIPATION_ROLES for decl in (
        AnnotationDecl(name, AXIS_RIGIDITY, "anti-rigid"),
        AnnotationDecl(name, AXIS_DEPENDENCE, "dependent"))),
)


@cache
def kernel_ontology() -> Ontology:
    """The kernel as a loaded Ontology (shared immutable instance)."""
    onto, diags = load(KERNEL_DECLARATIONS)
    if onto is None:  # pragma: no cover - would be a packaging bug
        raise RuntimeError(f"kernel failed to load: {[d.render() for d in diags]}")
    return onto


def merge_with_kernel(
    decls: Iterable[Declaration], source: SourceText = KERNEL_SOURCE,
) -> tuple[Optional[Ontology], list[Diagnostic]]:
    """Graft user declarations onto the kernel; kernel names stay fixed.

    `source` is the text the declarations were parsed from.  A record
    built in code without a line counts as the kernel's, and needs none."""
    return load(chain(KERNEL_DECLARATIONS, decls), source)
