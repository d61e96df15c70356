"""Extraction of the three expertise-model documents from a labeled model.

A label is effective at snapshot time s when it is the latest label of
its exclusivity family at or before s.  The task model collects the
concepts effectively labeled Task, the inference model those labeled
Inference or TransferFunction, and the domain model those labeled
DomainConcept.  Task and inference concepts resolve their inputs and
outputs through the declared role definitions: a role `X = data of C`
attaches to R when C subsumes R, and analogously for result roles.  The
domain model additionally carries the plays-links derived from
conjunction definitions (type -> material role) and the user relations
whose signature concepts all live in the domain model.

Emission writes `domain.json`, `inference.json` and `task.json` with
sorted keys, two-space indentation and LF endings; files are written to
a temporary name and renamed into place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .model import (
    Conjunction,
    Diagnostic,
    LABEL_FAMILY,
    Ontology,
    Origin,
    RoleDefinition,
    Severity,
    has_errors,
)
from .reasoner import SubsumptionClosure, compute_closure
from .checks import validate

SCHEMA_VERSION = "1"


class CompileRefusedError(Exception):
    """Compilation was attempted on a model with validation errors."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        super().__init__(f"{len(diagnostics)} error diagnostic(s) block compilation")
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class RoleRecord:
    name: str
    mode: str
    reasoning_concept: str
    players: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "reasoning_concept": self.reasoning_concept,
            "players": list(self.players),
        }


@dataclass(frozen=True)
class BundleConcept:
    name: str
    parents: tuple[str, ...]
    annotations: tuple[tuple[str, str], ...]
    inputs: Optional[tuple[RoleRecord, ...]] = None
    outputs: Optional[tuple[RoleRecord, ...]] = None
    methods: Optional[tuple[str, ...]] = None

    def to_json(self) -> dict:
        doc: dict = {
            "name": self.name,
            "parents": list(self.parents),
            "annotations": dict(self.annotations),
        }
        if self.inputs is not None or self.outputs is not None:
            doc["io"] = {
                "inputs": [r.to_json() for r in self.inputs or ()],
                "outputs": [r.to_json() for r in self.outputs or ()],
            }
        if self.methods is not None:
            doc["methods"] = list(self.methods)
        return doc


@dataclass(frozen=True)
class DomainRelation:
    name: str
    domain: str
    range: str
    temporal: bool

    def to_json(self) -> dict:
        return {"name": self.name, "domain": self.domain,
                "range": self.range, "temporal": self.temporal}


@dataclass(frozen=True)
class PlaysLink:
    type_concept: str
    role: str

    def to_json(self) -> dict:
        return {"type": self.type_concept, "role": self.role}


@dataclass
class ModelBundle:
    snapshot_time: int
    domain_concepts: tuple[BundleConcept, ...] = ()
    domain_relations: tuple[DomainRelation, ...] = ()
    plays: tuple[PlaysLink, ...] = ()
    inference_concepts: tuple[BundleConcept, ...] = ()
    task_concepts: tuple[BundleConcept, ...] = ()

    def content(self) -> tuple:
        """Everything except the snapshot time, for equality over content."""
        return (self.domain_concepts, self.domain_relations, self.plays,
                self.inference_concepts, self.task_concepts)

    def documents(self) -> dict[str, dict]:
        common = {"schema_version": SCHEMA_VERSION, "snapshot_time": self.snapshot_time}
        return {
            "domain.json": {
                **common,
                "concepts": [c.to_json() for c in self.domain_concepts],
                "relations": [r.to_json() for r in self.domain_relations],
                "plays": [p.to_json() for p in self.plays],
            },
            "inference.json": {
                **common,
                "concepts": [c.to_json() for c in self.inference_concepts],
            },
            "task.json": {
                **common,
                "concepts": [c.to_json() for c in self.task_concepts],
            },
        }


def effective_labels(ontology: Ontology, snapshot_time: int) -> dict[str, set[str]]:
    """Map primitive -> concepts whose label is effective at the snapshot.

    A label (p, c, u) is effective at s iff u <= s and no label of the
    same exclusivity family on c exists at u < u' <= s (latest wins).
    """
    latest: dict[tuple[str, str], int] = {}
    for lb in ontology.labels.values():
        key = (lb.concept, LABEL_FAMILY[lb.primitive])
        if latest.get(key, -1) < lb.time <= snapshot_time:
            latest[key] = lb.time
    out: dict[str, set[str]] = {}
    for lb in ontology.labels.values():
        if latest.get((lb.concept, LABEL_FAMILY[lb.primitive])) == lb.time:
            out.setdefault(lb.primitive, set()).add(lb.concept)
    return out


def _annotations_of(ontology: Ontology, concept: str) -> tuple[tuple[str, str], ...]:
    per = ontology.annotations.get(concept, {})
    return tuple(sorted((axis, decl.value) for axis, decl in per.items()))


def _role_records(ontology: Ontology) -> list[RoleRecord]:
    """Every role definition with its players, sorted by role name."""
    players: dict[str, list[str]] = {}
    for c in ontology.conjunctions():
        players.setdefault(c.definition.formal_role, []).append(c.definition.type_concept)
    records = []
    for role in sorted(ontology.role_definitions(), key=lambda c: c.name):
        definition: RoleDefinition = role.definition
        records.append(RoleRecord(role.name, definition.mode,
                                  definition.reasoning_concept,
                                  tuple(sorted(players.get(role.name, ())))))
    return records


def _io_of(
    roles: list[RoleRecord], closure: SubsumptionClosure, concept: str
) -> tuple[tuple[RoleRecord, ...], tuple[RoleRecord, ...]]:
    ancestors = closure.ancestors(concept)
    inputs = []
    outputs = []
    for record in roles:
        if record.reasoning_concept in ancestors:
            (inputs if record.mode == "data" else outputs).append(record)
    return tuple(inputs), tuple(outputs)


def _parents_within(
    ontology: Ontology, concept: str, members: set[str]
) -> tuple[str, ...]:
    decl = ontology.concepts[concept]
    supers = list(decl.parents)
    if isinstance(decl.definition, Conjunction):
        supers.extend((decl.definition.type_concept, decl.definition.formal_role))
    return tuple(sorted(p for p in set(supers) if p in members and p != concept))


def compile_bundle(
    ontology: Ontology,
    snapshot_time: int,
    diagnostics: Optional[Sequence[Diagnostic]] = None,
) -> tuple[ModelBundle, list[Diagnostic]]:
    """Extract the three models at a snapshot time.

    `diagnostics` can pass in a previously computed validate() result;
    otherwise the ontology is validated here.  Any error diagnostic
    raises CompileRefusedError.
    """
    if snapshot_time < 0:
        raise ValueError("snapshot time must be non-negative")
    diags = list(diagnostics) if diagnostics is not None else validate(ontology)
    if has_errors(diags):
        raise CompileRefusedError([d for d in diags if d.severity is Severity.ERROR])

    closure = compute_closure(ontology)
    effective = effective_labels(ontology, snapshot_time)
    compile_diags: list[Diagnostic] = []
    if not any(effective.values()):
        compile_diags.append(Diagnostic(
            Severity.WARNING, "C1",
            f"no labels are effective at snapshot time {snapshot_time}; "
            f"the bundle is empty"))

    task_set = set(effective.get("Task", set()))
    inference_set = set(effective.get("Inference", set())) \
        | set(effective.get("TransferFunction", set()))
    domain_set = set(effective.get("DomainConcept", set()))
    roles = _role_records(ontology)

    def reasoning_concepts(members: set[str], with_methods: bool) -> tuple[BundleConcept, ...]:
        out = []
        for name in sorted(members):
            inputs, outputs = _io_of(roles, closure, name)
            out.append(BundleConcept(
                name, _parents_within(ontology, name, members),
                _annotations_of(ontology, name),
                inputs=inputs, outputs=outputs,
                methods=() if with_methods else None))
        return tuple(out)

    domain_concepts = tuple(
        BundleConcept(name, _parents_within(ontology, name, domain_set),
                      _annotations_of(ontology, name))
        for name in sorted(domain_set))
    domain_relations = tuple(
        DomainRelation(r.name, "|".join(r.signature[0]),
                       "|".join(r.signature[-1]), r.temporal)
        for r in sorted(ontology.relations.values(), key=lambda r: r.name)
        if r.origin is Origin.USER
        and all(m in domain_set for union in r.signature for m in union))
    plays = tuple(
        PlaysLink(c.definition.type_concept, c.name)
        for c in sorted(ontology.conjunctions(), key=lambda c: c.name))

    bundle = ModelBundle(
        snapshot_time=snapshot_time,
        domain_concepts=domain_concepts,
        domain_relations=domain_relations,
        plays=plays,
        inference_concepts=reasoning_concepts(inference_set, with_methods=False),
        task_concepts=reasoning_concepts(task_set, with_methods=True),
    )
    return bundle, compile_diags


BUNDLE_FILES = ("domain.json", "inference.json", "task.json")


def emit_bundle(bundle: ModelBundle, directory: Path | str) -> list[Path]:
    """Write the three bundle documents; byte-identical for equal bundles."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, doc in bundle.documents().items():
        payload = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        target = directory / filename
        tmp = directory / f".{filename}.tmp-{os.getpid()}"
        try:
            tmp.write_text(payload, encoding="utf-8", newline="\n")
            os.replace(tmp, target)
        except OSError as err:
            raise OSError(f"cannot write bundle file {target}: {err}") from err
        finally:
            if tmp.exists():  # pragma: no cover - only on failed replace
                tmp.unlink()
        written.append(target)
    return written
