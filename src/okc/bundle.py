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

Emission writes each document straight from the bundle's records, one
text template per record kind at its fixed depth and key order, and each
concept's text as soon as it is rendered.  The templates are the one
encoding of the bundle schema: the bytes are those of `json.dumps(doc,
indent=2, sort_keys=True, ensure_ascii=False)` over the document as a
dict.  One role record recurs under every concept that inherits it; its
text is rendered once per emission.
"""

from __future__ import annotations

import errno
import os
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .model import (
    Conjunction,
    Diagnostic,
    LABEL_FAMILY,
    Ontology,
    RoleDefinition,
    Severity,
    _record,
    has_errors,
    sort_diagnostics,
)
from .reasoner import compute_closure
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


@_record
class BundleConcept(NamedTuple):
    name: str
    parents: tuple[str, ...]
    annotations: tuple[tuple[str, str], ...]
    inputs: Optional[tuple[RoleRecord, ...]] = None
    outputs: Optional[tuple[RoleRecord, ...]] = None
    methods: Optional[tuple[str, ...]] = None


@_record
class DomainRelation(NamedTuple):
    name: str
    domain: str
    range: str
    temporal: bool


@_record
class PlaysLink(NamedTuple):
    type_concept: str
    role: str


@_record
class ModelBundle(NamedTuple):
    snapshot_time: int
    domain_concepts: tuple[BundleConcept, ...] = ()
    domain_relations: tuple[DomainRelation, ...] = ()
    plays: tuple[PlaysLink, ...] = ()
    inference_concepts: tuple[BundleConcept, ...] = ()
    task_concepts: tuple[BundleConcept, ...] = ()


def effective_labels(ontology: Ontology, snapshot_time: int) -> dict[str, set[str]]:
    """Map primitive -> concepts whose label is effective at the snapshot.

    A label (p, c, u) is effective at s iff u <= s and no label of the
    same exclusivity family on c exists at u < u' <= s (latest wins).
    One pass keeps, per concept and family, the latest time and its primitives.
    """
    latest: dict[tuple[str, str], tuple[int, list[str]]] = {}
    for primitive, concept, time in ontology.labels:
        key = (concept, LABEL_FAMILY[primitive])
        seen = latest.get(key, (-1, []))
        if seen[0] < time <= snapshot_time:
            latest[key] = (time, [primitive])
        elif seen[0] == time:
            seen[1].append(primitive)
    out: dict[str, set[str]] = {}
    for (concept, _), (_, primitives) in latest.items():
        for primitive in primitives:
            out.setdefault(primitive, set()).add(concept)
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
    # masked ancestor bitset -> (inputs, outputs): the data and the result roles
    # whose reasoning concept subsumes the concept, each in role-name order
    io_at: dict[int, tuple] = {}

    def reasoning_concepts(members: set[str], with_methods: bool) -> tuple[BundleConcept, ...]:
        out = []
        for name in sorted(members):
            key = closure.ancestor_bits(name, among)
            if key not in io_at:
                roles = sorted([r for c in closure.ancestors(name, among) for r in roles_at[c]],
                               key=attrgetter("name"))
                io_at[key] = (tuple(r for r in roles if r.mode == "data"),
                              tuple(r for r in roles if r.mode != "data"))
            inputs, outputs = io_at[key]
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
        if r.line > 0
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


# The text of each record kind at its fixed depth, keys in sorted order: role
# records are items of a concept's "inputs" or "outputs", the rest of a top-level list.
_CONCEPT_HEAD = '{\n      "annotations": %s'
_CONCEPT_IO = ',\n      "io": {\n        "inputs": %s,\n        "outputs": %s\n      }'
_CONCEPT_METHODS = ',\n      "methods": %s'
_CONCEPT_TAIL = ',\n      "name": %s,\n      "parents": %s\n    }'
_ROLE = ('{\n            "mode": %s,\n            "name": %s,\n            "players": %s,'
         '\n            "reasoning_concept": %s\n          }')
_RELATION = '{\n      "domain": %s,\n      "name": %s,\n      "range": %s,\n      "temporal": %s\n    }'
_PLAYS = '{\n      "role": %s,\n      "type": %s\n    }'
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))


def _list(texts: Sequence[str], depth: int) -> str:
    """The list of the item texts `texts`, opened at indentation `depth`."""
    if not texts:
        return "[]"
    inner = _NEWLINE[depth + 1]
    return "[" + inner + ("," + inner).join(texts) + _NEWLINE[depth] + "]"


def _roles_text(records: Sequence[RoleRecord], texts: dict[RoleRecord, str]) -> str:
    """The list of `records`, each rendered once and kept in `texts`."""
    out = []
    for r in records:
        text = texts.get(r)
        if text is None:
            text = texts[r] = _ROLE % (
                encode_basestring(r.mode), encode_basestring(r.name),
                _list([*map(encode_basestring, r.players)], 6),
                encode_basestring(r.reasoning_concept))
        out.append(text)
    return _list(out, 4)


def _concept_text(c: BundleConcept, role_texts: dict[RoleRecord, str]) -> str:
    annotations = "{}" if not c.annotations else "{\n        " + ",\n        ".join([
        encode_basestring(axis) + ": " + encode_basestring(value)
        for axis, value in sorted(dict(c.annotations).items())]) + "\n      }"
    text = _CONCEPT_HEAD % annotations
    if c.inputs is not None or c.outputs is not None:
        text += _CONCEPT_IO % (_roles_text(c.inputs or (), role_texts),
                               _roles_text(c.outputs or (), role_texts))
    if c.methods is not None:
        text += _CONCEPT_METHODS % _list([*map(encode_basestring, c.methods)], 3)
    return text + _CONCEPT_TAIL % (encode_basestring(c.name),
                                   _list([*map(encode_basestring, c.parents)], 3))


def _document(lists: Sequence[tuple[str, Iterable[str]]], snapshot_time: int) -> Iterator[str]:
    """A top-level document, one item at a time: its lists of item texts,
    keyed in sorted order, then the schema version and the snapshot time."""
    separator = "{\n  "
    for key, texts in lists:
        yield separator + encode_basestring(key) + ": "
        empty = True
        for text in texts:
            yield ("[\n    " if empty else ",\n    ") + text
            empty = False
        yield "[]" if empty else "\n  ]"
        separator = ",\n  "
    yield (separator + '"schema_version": ' + encode_basestring(SCHEMA_VERSION)
           + ',\n  "snapshot_time": ' + int.__repr__(snapshot_time) + "\n}\n")


def emit_bundle(bundle: ModelBundle, directory: Path | str) -> list[Path]:
    """Write the three bundle documents; byte-identical for equal bundles.

    A target that is not a regular file is refused before anything is
    written, and all three documents are written to temporary files before
    the first rename.  No temporary file outlives the call.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    enc, roles = encode_basestring, {}

    def concepts(members: Sequence[BundleConcept]) -> tuple[str, Iterator[str]]:
        return "concepts", (_concept_text(c, roles) for c in members)

    documents = {
        "domain.json": (concepts(bundle.domain_concepts),
                        ("plays", (_PLAYS % (enc(p.role), enc(p.type_concept)) for p in bundle.plays)),
                        ("relations", (_RELATION % (enc(r.domain), enc(r.name), enc(r.range),
                                                    "true" if r.temporal else "false")
                                       for r in bundle.domain_relations))),
        "inference.json": (concepts(bundle.inference_concepts),),
        "task.json": (concepts(bundle.task_concepts),),
    }
    targets = [directory / filename for filename in documents]
    made: list[Path] = []
    try:
        for target in targets:
            if target.exists() and not target.is_file():
                raise (IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                       if target.is_dir() else OSError("not a regular file"))
        for target, lists in zip(targets, documents.values()):
            tmp = directory / f".{target.name}.tmp-{os.getpid()}"
            with open(tmp, "w", encoding="utf-8", newline="\n") as out:
                made.append(tmp)
                out.writelines(_document(lists, bundle.snapshot_time))
        for target, tmp in zip(targets, made):
            os.replace(tmp, target)
    except OSError as err:
        raise OSError(f"cannot write bundle file {target}: {err}") from err
    finally:
        for tmp in made:
            tmp.unlink(missing_ok=True)
    return targets
