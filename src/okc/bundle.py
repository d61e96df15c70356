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

Emission streams `domain.json`, `inference.json` and `task.json` to a
temporary name, one item of a top-level list at a time, and renames each
into place.  The bytes equal those of `json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False)`.  Every reasoning concept lists the
role records it inherits, so one record recurs under many concepts;
`documents` shares one dict per record, and only these shared dicts are
memoized, rendered once per indentation depth.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

from .model import (
    Conjunction,
    Diagnostic,
    LABEL_FAMILY,
    Ontology,
    Origin,
    RoleDefinition,
    Severity,
    _record,
    has_errors,
    sort_diagnostics,
)
from .reasoner import SubsumptionClosure, compute_closure
from .checks import validate

SCHEMA_VERSION = "1"


class CompileRefusedError(Exception):
    """Compilation was attempted on a model with validation errors.

    `diagnostics` holds every validation finding, warnings included.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        errors = sum(d.severity is Severity.ERROR for d in diagnostics)
        super().__init__(f"{errors} error diagnostic(s) block compilation")
        self.diagnostics = list(diagnostics)


@_record
class RoleRecord(NamedTuple):
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


@_record
class BundleConcept(NamedTuple):
    name: str
    parents: tuple[str, ...]
    annotations: tuple[tuple[str, str], ...]
    inputs: Optional[tuple[RoleRecord, ...]] = None
    outputs: Optional[tuple[RoleRecord, ...]] = None
    methods: Optional[tuple[str, ...]] = None

    def to_json(self, role_docs: dict[RoleRecord, dict]) -> dict:
        """The concept's document; `role_docs` shares one dict per role record."""
        doc: dict = {
            "name": self.name,
            "parents": list(self.parents),
            "annotations": dict(self.annotations),
        }
        if self.inputs is not None or self.outputs is not None:
            def role_doc(r: RoleRecord) -> dict:
                shared = role_docs.get(r)
                if shared is None:
                    shared = role_docs[r] = r.to_json()
                return shared
            doc["io"] = {
                "inputs": [role_doc(r) for r in self.inputs or ()],
                "outputs": [role_doc(r) for r in self.outputs or ()],
            }
        if self.methods is not None:
            doc["methods"] = list(self.methods)
        return doc


@_record
class DomainRelation(NamedTuple):
    name: str
    domain: str
    range: str
    temporal: bool

    def to_json(self) -> dict:
        return {"name": self.name, "domain": self.domain,
                "range": self.range, "temporal": self.temporal}


@_record
class PlaysLink(NamedTuple):
    type_concept: str
    role: str

    def to_json(self) -> dict:
        return {"type": self.type_concept, "role": self.role}


@_record
class ModelBundle(NamedTuple):
    snapshot_time: int
    domain_concepts: tuple[BundleConcept, ...] = ()
    domain_relations: tuple[DomainRelation, ...] = ()
    plays: tuple[PlaysLink, ...] = ()
    inference_concepts: tuple[BundleConcept, ...] = ()
    task_concepts: tuple[BundleConcept, ...] = ()

    def content(self) -> tuple:
        """Everything except the snapshot time, for equality over content."""
        return self[1:]

    def documents(self, role_docs: Optional[dict[RoleRecord, dict]] = None) -> dict[str, dict]:
        """The three documents; equal role records share one dict, kept in `role_docs`."""
        common = {"schema_version": SCHEMA_VERSION, "snapshot_time": self.snapshot_time}
        role_docs = {} if role_docs is None else role_docs
        return {
            "domain.json": {
                **common,
                "concepts": [c.to_json(role_docs) for c in self.domain_concepts],
                "relations": [r.to_json() for r in self.domain_relations],
                "plays": [p.to_json() for p in self.plays],
            },
            "inference.json": {
                **common,
                "concepts": [c.to_json(role_docs) for c in self.inference_concepts],
            },
            "task.json": {
                **common,
                "concepts": [c.to_json(role_docs) for c in self.task_concepts],
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


_by_name = attrgetter("name")


def _io_of(
    roles_at: dict[str, list[RoleRecord]], among: int,
    closure: SubsumptionClosure, concept: str
) -> tuple[tuple[RoleRecord, ...], tuple[RoleRecord, ...]]:
    """The data and the result roles whose reasoning concept subsumes
    `concept`, each in role-name order.  `roles_at` groups the role
    records by reasoning concept, and `among` is the bitset of those
    concepts, so only the subsumers that carry roles are decoded."""
    hits = closure.ancestors(concept, among)
    records = sorted([r for c in hits for r in roles_at[c]], key=_by_name)
    return (tuple(r for r in records if r.mode == "data"),
            tuple(r for r in records if r.mode != "data"))


def _parents_within(
    ontology: Ontology, concept: str, members: set[str]
) -> tuple[str, ...]:
    decl = ontology.concepts[concept]
    supers = list(decl.parents)
    if isinstance(decl.definition, Conjunction):
        supers.extend((decl.definition.type_concept, decl.definition.formal_role))
    return tuple(sorted(p for p in set(supers) if p in members and p != concept))


def compile_bundle(
    ontology: Ontology, snapshot_time: int
) -> tuple[ModelBundle, list[Diagnostic]]:
    """Validate the ontology, then extract the three models at a snapshot time.

    This is the one place that decides whether a model compiles.  Any
    error finding raises CompileRefusedError, which carries every
    validation finding, warnings included.  Otherwise the bundle is
    returned with the validation warnings and any C1, sorted.
    """
    if snapshot_time < 0:
        raise ValueError("snapshot time must be non-negative")
    diags = validate(ontology)
    if has_errors(diags):
        raise CompileRefusedError(diags)

    closure = compute_closure(ontology)
    effective = effective_labels(ontology, snapshot_time)
    if not any(effective.values()):
        diags.append(Diagnostic(
            Severity.WARNING, "C1",
            f"no labels are effective at snapshot time {snapshot_time}; "
            f"the bundle is empty"))

    task_set = set(effective.get("Task", set()))
    inference_set = set(effective.get("Inference", set())) \
        | set(effective.get("TransferFunction", set()))
    domain_set = set(effective.get("DomainConcept", set()))
    roles_at: dict[str, list[RoleRecord]] = {}
    for record in _role_records(ontology):
        roles_at.setdefault(record.reasoning_concept, []).append(record)
    among = closure.mask(roles_at)

    def reasoning_concepts(members: set[str], with_methods: bool) -> tuple[BundleConcept, ...]:
        out = []
        for name in sorted(members):
            inputs, outputs = _io_of(roles_at, among, closure, name)
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
    return bundle, sort_diagnostics(diags)


BUNDLE_FILES = ("domain.json", "inference.json", "task.json")


def canonical_json(value: object, memo: Optional[dict[tuple[int, int], str]] = None) -> str:
    """`json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)`
    for the types a bundle holds: dict, list, str, int and bool.

    A dict that occurs more than once in `value` is rendered once per
    depth: `memo` maps its (id, depth) to its text and holds no other
    dict.  Pass one memo only while the values it was filled from are alive.
    """
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            (shared if id(item) in seen else seen).add(id(item))
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return "".join(_pieces(value, {} if memo is None else memo, shared))


def _pieces(value: object, memo: dict[tuple[int, int], str], shared: set[int]) -> Iterator[str]:
    """The text of `value`, one item of a list in a top-level dict at a time."""
    if not isinstance(value, dict) or not value:
        yield _render(value, 0, memo, shared)
        return
    for n, key in enumerate(sorted(value)):
        head, item = ("{" if n == 0 else ",") + "\n  " + encode_basestring(key) + ": ", value[key]
        if isinstance(item, list) and item:
            for i, element in enumerate(item):
                yield (head + "[" if i == 0 else ",") + "\n    " + _render(element, 2, memo, shared)
            yield "\n  ]"
        else:
            yield head + _render(item, 1, memo, shared)
    yield "\n}"


def _render(value: object, depth: int, memo: dict[tuple[int, int], str], shared: set[int]) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        key = (id(value), depth)
        text = memo.get(key)
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            text = "{" + inner + ("," + inner).join([
                encode_basestring(k) + ": " + _render(value[k], depth + 1, memo, shared)
                for k in sorted(value)]) + "\n" + "  " * depth + "}"
            if id(value) in shared:
                memo[key] = text
        return text
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        return "[" + inner + ("," + inner).join([
            _render(item, depth + 1, memo, shared) for item in value]) + "\n" + "  " * depth + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a bundle holds no {type(value).__name__}")


def emit_bundle(bundle: ModelBundle, directory: Path | str) -> list[Path]:
    """Stream the three bundle documents to files; byte-identical for equal bundles."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    role_docs: dict[RoleRecord, dict] = {}
    documents = bundle.documents(role_docs)
    shared = {id(doc) for doc in role_docs.values()}
    memo: dict[tuple[int, int], str] = {}
    for filename, doc in documents.items():
        target = directory / filename
        tmp = directory / f".{filename}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as out:
                out.writelines(_pieces(doc, memo, shared))
                out.write("\n")
            os.replace(tmp, target)
        except OSError as err:
            raise OSError(f"cannot write bundle file {target}: {err}") from err
        finally:
            if tmp.exists():  # pragma: no cover - only on failed replace
                tmp.unlink()
    return [directory / filename for filename in documents]
