"""In-memory ontology model: declarations, labels, facts, diagnostics.

`load` resolves a set of declarations into an Ontology (the kernel module
grafts parsed declarations onto the built-in kernel this way).  A loaded
Ontology is immutable, so it is safe for concurrent read-only use, and
any order of the same declarations loads to the same content and the
same diagnostics.

Identical re-declarations are collapsed silently (set semantics).  The
one exception is meta-labels: a duplicate (primitive, concept, time)
triple is a load error (E5).

Every okc record is an immutable tuple record (`typing.NamedTuple`)
with read-only fields under `_record`: declarations, their definitions,
source spans, diagnostics and the Ontology here, and the tokens and
bundle records of the other modules.  Each equals only records of its
own class, never a plain tuple or another record class, and hashes as
the tuple of its fields; the Ontology's fields are dicts, so it is
unhashable.

A declaration holds the 1-based number of the line it was parsed from,
or 0 for the kernel's, so a record built in code without a line counts
as the kernel's; one statement per line makes (file, line) name it.
`load` refuses a record whose line is negative or past the last line of
its `SourceText`, by one E4 at the kernel span.  A `SourceSpan` is a
file, a line and a column: only diagnostics hold one, built from the
`SourceText` the loaded Ontology keeps, and a token holds only a column.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, Union, get_args


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


def _record(cls):
    """Make a NamedTuple class equal only records of its own class.

    A plain NamedTuple equals every tuple with the same fields, so a role
    definition would equal a conjunction of the same two names.
    `object.__ne__` negates `equal`, where `tuple.__ne__` would not.
    """

    def equal(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    cls.__eq__, cls.__ne__, cls.__hash__ = equal, object.__ne__, tuple.__hash__
    return cls


@_record
class SourceSpan(NamedTuple):
    """Location of a diagnostic inside a source file.

    Lines and columns are 1-based, and a column counts characters, so a
    tab is one column.  A finding on a kernel declaration (line 0) has
    the KERNEL_SPAN sentinel.
    """

    file: str
    line: int
    column: int


KERNEL_SPAN = SourceSpan("<kernel>", 0, 0)


def source_lines(text: str) -> list[str]:
    """The lines of a source text; only LF, CRLF and a lone CR end one."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class SourceText:
    """A file's name and text, which turn a declaration's line into a span.
    The text is split into lines on the first `span` call, so a file
    without findings is never split here."""

    def __init__(self, file: str, text: str) -> None:
        self.file, self.text, self._lines = file, text, None

    def span(self, line: int) -> SourceSpan:
        """The span of the statement on `line`, at its first non-whitespace
        character; KERNEL_SPAN for line 0.  `load` has checked the line."""
        if line == 0:
            return KERNEL_SPAN
        if self._lines is None:
            self._lines = source_lines(self.text)
        text = self._lines[line - 1]
        return SourceSpan(self.file, line, len(text) - len(text.lstrip()) + 1)


KERNEL_SOURCE = SourceText("<kernel>", "")


@_record
class Diagnostic(NamedTuple):
    """One coded finding. Error-severity findings block compilation."""

    severity: Severity
    code: str
    message: str
    span: SourceSpan = KERNEL_SPAN
    subjects: tuple[str, ...] = ()

    def sort_key(self) -> tuple:
        return (*self.span, self.code, self.message, self.subjects)

    def render(self) -> str:
        if self.span.line <= 0:
            return f"{self.span.file}: {self.severity.value}[{self.code}] {self.message}"
        return (f"{self.span.file}:{self.span.line}:{self.span.column}: "
                f"{self.severity.value}[{self.code}] {self.message}")

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
            "column": self.span.column,
            "subjects": list(self.subjects),
        }


def sort_diagnostics(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


# --- label primitives ------------------------------------------------------

PRIMITIVES: tuple[str, ...] = (
    "Task",
    "Inference",
    "TransferFunction",
    "DomainConcept",
    "KnowledgeRole",
    "FormalKnowledgeRole",
    "MaterialKnowledgeRole",
    "Input",
    "Output",
)

KNOWLEDGE_ROLE_PRIMITIVES = frozenset(
    {"KnowledgeRole", "FormalKnowledgeRole", "MaterialKnowledgeRole", "Input", "Output"}
)

# Exclusivity families: per time point a concept may carry at most one
# label from each family.  TransferFunction forms its own family.
LABEL_FAMILY: dict[str, str] = {
    "Task": "reasoning",
    "Inference": "reasoning",
    "TransferFunction": "transfer",
    "DomainConcept": "domain",
    **{p: "domain" for p in KNOWLEDGE_ROLE_PRIMITIVES},
}


# --- meta-property axes ----------------------------------------------------

AXIS_RIGIDITY = "rigidity"
AXIS_IDENTITY = "identity"
AXIS_DEPENDENCE = "dependence"

ANNOTATION_VALUES: dict[str, tuple[str, ...]] = {
    AXIS_RIGIDITY: ("rigid", "anti-rigid", "semi-rigid"),
    AXIS_IDENTITY: ("carries", "none"),
    AXIS_DEPENDENCE: ("dependent", "independent"),
}


# --- declarations ----------------------------------------------------------


@_record
class RoleDefinition(NamedTuple):
    """Defined concept of the form `role N = data|result of R`."""

    mode: str  # "data" | "result"
    reasoning_concept: str


@_record
class Conjunction(NamedTuple):
    """Defined concept of the form `concept N = Type and FormalRole`."""

    type_concept: str
    formal_role: str


Definition = Union[RoleDefinition, Conjunction]


@_record
class ConceptDecl(NamedTuple):
    name: str
    parents: tuple[str, ...] = ()
    definition: Optional[Definition] = None
    line: int = 0

    def content(self) -> tuple:
        return ("concept", frozenset(self.parents), self.definition)


@_record
class RelationDecl(NamedTuple):
    """Relation with a positional signature.

    Each signature position is a union of concept names (almost always a
    single name); a trailing time argument exists iff `temporal` is set.
    """

    name: str
    signature: tuple[tuple[str, ...], ...]
    temporal: bool = False
    particularizes: Optional[str] = None
    line: int = 0

    @property
    def arity(self) -> int:
        return len(self.signature)

    def content(self) -> tuple:
        return ("relation", self.signature, self.temporal, self.particularizes)


@_record
class AnnotationDecl(NamedTuple):
    """One meta-property axis value for one concept."""

    concept: str
    axis: str
    value: str
    line: int = 0


@_record
class MetaLabel(NamedTuple):
    """Classification of a concept by a modeling primitive at a time."""

    primitive: str
    concept: str
    time: int
    line: int = 0


@_record
class InstanceDecl(NamedTuple):
    name: str
    concepts: tuple[str, ...]
    line: int = 0

    def content(self) -> tuple:
        return ("instance", frozenset(self.concepts))


class Ground(NamedTuple):
    """A fact without its line; unlike the records, it equals a plain tuple."""

    relation: str
    args: tuple[str, ...]
    time: Optional[int]

    def render(self) -> str:
        parts = list(self.args) + ([] if self.time is None else [str(self.time)])
        return f"{self.relation}({', '.join(parts)})"


@_record
class Fact(NamedTuple):
    """Ground relational fact; `time` present iff the relation is temporal."""

    relation: str
    args: tuple[str, ...]
    time: Optional[int] = None
    line: int = 0


@_record
class DisjointDecl(NamedTuple):
    first: str
    second: str
    line: int = 0

    def pair(self) -> tuple[str, str]:
        return tuple(sorted((self.first, self.second)))  # type: ignore[return-value]


Declaration = Union[
    ConceptDecl, RelationDecl, AnnotationDecl, MetaLabel, InstanceDecl, Fact, DisjointDecl
]


# --- the ontology value ----------------------------------------------------


@_record
class Ontology(NamedTuple):
    """Complete declared model. Treat as immutable after loading.
    `source` is the text the user declarations were parsed from."""

    concepts: dict[str, ConceptDecl]
    relations: dict[str, RelationDecl]
    instances: dict[str, InstanceDecl]
    annotations: dict[str, dict[str, AnnotationDecl]]
    labels: dict[tuple[str, str, int], MetaLabel]
    facts: dict[Ground, Fact]
    disjoints: dict[tuple[str, str], DisjointDecl]
    source: SourceText

    # -- lookups

    def annotation_value(self, concept: str, axis: str) -> Optional[str]:
        decl = self.annotations.get(concept, {}).get(axis)
        return decl.value if decl else None

    def max_label_time(self) -> int:
        return max((lb.time for lb in self.labels.values()), default=0)

    def role_definitions(self) -> list[ConceptDecl]:
        return [c for c in self.concepts.values() if isinstance(c.definition, RoleDefinition)]

    def conjunctions(self) -> list[ConceptDecl]:
        return [c for c in self.concepts.values() if isinstance(c.definition, Conjunction)]


# --- loading ---------------------------------------------------------------


def direct_supers(concept: ConceptDecl) -> tuple[str, ...]:
    """Asserted parents plus supertypes implied by the definition form."""
    implied: tuple[str, ...] = ()
    if isinstance(concept.definition, RoleDefinition):
        implied = ("Data",) if concept.definition.mode == "data" else ("Result",)
    elif isinstance(concept.definition, Conjunction):
        implied = (concept.definition.type_concept, concept.definition.formal_role)
    return concept.parents + implied


def _earliest(decls: list, keys: Iterable) -> tuple[dict, dict[object, list]]:
    """The earliest declaration per key (by line, the kernel's first), and
    each repeated key's declarations in that order.  `keys` runs beside
    `decls`; they are walked one by one only on a repeat."""
    keys = list(keys)
    first = dict(zip(keys, decls))
    duplicates: dict[object, list] = {}
    if len(first) < len(decls):
        first = {}
        for k, d in zip(keys, decls):
            if k in first:
                duplicates.setdefault(k, [first[k]]).append(d)
            else:
                first[k] = d
    for k, group in duplicates.items():
        group.sort(key=attrgetter("line"))
        first[k] = group[0]
    return first, duplicates


_LABEL_KEY = attrgetter("primitive", "concept", "time")


def _error(code: str, message: str, span: SourceSpan, *subjects: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, subjects)


def _warning(code: str, message: str, span: SourceSpan, *subjects: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span, subjects)


def load(decls: Iterable[Declaration], source: SourceText = KERNEL_SOURCE,
         ) -> tuple[Optional[Ontology], list[Diagnostic]]:
    """Resolve declarations into an Ontology, or the errors that refuse them.

    `source` is the text the user declarations were parsed from; a
    finding's span is built from it, so a line outside it gives an E4.
    Resolution is two-phase: every declaration is grouped by kind first,
    then names are resolved over the complete set, which makes the result
    independent of declaration order.  References resolve by set
    difference, and only the declarations that touch what is left are
    walked for diagnostics.  Every finding of a load is an error.
    """
    span = source.span
    diags: list[Diagnostic] = []
    staged: dict[type, list] = {kind: [] for kind in get_args(Declaration)}
    for d in decls:
        staged[type(d)].append(d)
    lines = list(map(attrgetter("line"), chain.from_iterable(staged.values())))
    low, high, last = min(lines, default=0), max(lines, default=0), source.text.count("\n") + 1
    if low < 0 or high > last:  # a lone CR ends a line too, as in `source_lines`
        last += source.text.count("\r") - source.text.count("\r\n")
    if low < 0 or high > last:
        return None, sort_diagnostics(_error(
            "E4", f"line {d.line} of {type(d).__name__} '{d[0]}' is outside {source.file}, "
            f"which has {last} line(s)", KERNEL_SPAN, d[0])
            for d in chain.from_iterable(staged.values()) if not 0 <= d.line <= last)

    concepts = _collapse_named(staged[ConceptDecl], span, diags)
    relations = _collapse_named(staged[RelationDecl], span, diags)
    instances = _collapse_named(staged[InstanceDecl], span, diags)
    _check_cross_kind(concepts, relations, instances, span, diags)

    annotations = _collapse_annotations(staged[AnnotationDecl], span, diags)
    labels, duplicates = _earliest(staged[MetaLabel], map(_LABEL_KEY, staged[MetaLabel]))
    diags.extend(_error("E5", f"duplicate label ({d.primitive}, {d.concept}, {d.time})",
                        span(d.line), d.concept)
                 for group in duplicates.values() for d in group[1:])
    # Each fact keyed by its Ground, built with no Python call per fact.
    facts, _ = _earliest(staged[Fact], map(tuple.__new__, repeat(Ground),
                                           map(itemgetter(0, 1, 2), staged[Fact])))
    disjoints, _ = _earliest(staged[DisjointDecl], map(DisjointDecl.pair, staged[DisjointDecl]))

    onto = Ontology(concepts, relations, instances, annotations, labels, facts, disjoints, source)
    _check_references(onto, diags)

    diags = sort_diagnostics(diags)
    if has_errors(diags):
        return None, diags
    return onto, diags


def _collapse_named(decls, span, diags: list[Diagnostic]) -> dict:
    out, duplicates = _earliest(decls, map(attrgetter("name"), decls))
    for name, group in duplicates.items():
        canonical = group[0]
        for other in group[1:]:
            if other.content() == canonical.content():
                continue  # identical re-declaration: set semantics
            if canonical.line == 0:
                diags.append(_error(
                    "E2", f"'{name}' redefines a kernel declaration", span(other.line), name))
            else:
                diags.append(_error(
                    "E1", f"duplicate declaration of '{name}' with different content",
                    span(other.line), name))
    return out


def _check_cross_kind(concepts, relations, instances, span, diags) -> None:
    # Concepts, relations and instances share one namespace.
    kinds = [("concept", concepts), ("relation", relations), ("instance", instances)]
    for i, (kind_a, map_a) in enumerate(kinds):
        for kind_b, map_b in kinds[i + 1:]:
            for name in map_a.keys() & map_b.keys():
                a, b = map_a[name], map_b[name]
                first, second = sorted((a, b), key=attrgetter("line"))
                code = "E2" if first.line == 0 else "E1"
                what = ("redefines a kernel declaration" if code == "E2"
                        else f"already declared as a {kind_a if second is b else kind_b}")
                diags.append(_error(code, f"'{name}' {what}", span(second.line), name))


def _collapse_annotations(decls, span, diags) -> dict[str, dict[str, AnnotationDecl]]:
    first, duplicates = _earliest(decls, map(attrgetter("concept", "axis"), decls))
    out: dict[str, dict[str, AnnotationDecl]] = {}
    for (concept, axis), canonical in first.items():
        if canonical.value not in ANNOTATION_VALUES.get(axis, ()):
            diags.append(_error(
                "E4", f"invalid {axis} value '{canonical.value}' for '{concept}'",
                span(canonical.line), concept))
            continue
        out.setdefault(concept, {})[axis] = canonical
        for other in duplicates.get((concept, axis), ())[1:]:
            if other.value != canonical.value:
                diags.append(_error(
                    "E6", f"conflicting {axis} annotation for '{concept}': "
                    f"'{canonical.value}' vs '{other.value}'", span(other.line), concept))
    return out


def _check_references(onto: Ontology, diags: list[Diagnostic]) -> None:
    # What does not resolve is the referenced concept names minus the
    # concepts, and the fact arguments minus the instances; fact shapes
    # are checked once per (relation, arity, time).  Only declarations that
    # can give a finding are walked, each kind in order; load sorts them.
    concepts, relations, instances = onto.concepts, onto.relations, onto.instances
    span = onto.source.span
    primitives, labelled, times = zip(*onto.labels) if onto.labels else ((), (), ())
    defined = [c for c in concepts.values() if c.definition is not None]
    unresolved = set(chain.from_iterable(map(attrgetter("parents"), concepts.values())))
    unresolved.update(chain.from_iterable(map(direct_supers, defined)),
                      chain.from_iterable(map(attrgetter("concepts"), instances.values())),
                      labelled, onto.annotations, chain.from_iterable(onto.disjoints))
    unresolved -= concepts.keys()
    bad_primitives = set(primitives).difference(PRIMITIVES)

    def need_concept(name: str, line: int, context: str) -> None:
        if name not in concepts:
            kind = "relation" if name in relations else (
                "instance" if name in instances else None)
            detail = f"names a {kind}, not a concept" if kind else "is not declared"
            diags.append(_error("E3", f"{context}: '{name}' {detail}", span(line), name))

    for c in concepts.values() if unresolved else defined:
        if c.definition is None and unresolved.isdisjoint(c.parents):
            continue
        if c.definition is not None and c.parents:
            # The statement grammar offers either form, never both.
            diags.append(_error(
                "E4", f"concept '{c.name}' has both asserted parents and a definition",
                span(c.line), c.name))
        for p in c.parents:
            need_concept(p, c.line, f"parent of '{c.name}'")
        if isinstance(c.definition, RoleDefinition):
            need_concept(c.definition.reasoning_concept, c.line,
                         f"reasoning concept of role '{c.name}'")
        elif isinstance(c.definition, Conjunction):
            need_concept(c.definition.type_concept, c.line,
                         f"conjunct of '{c.name}'")
            need_concept(c.definition.formal_role, c.line,
                         f"conjunct of '{c.name}'")

    for r in relations.values():
        for position in r.signature:
            for member in position:
                need_concept(member, r.line, f"signature of relation '{r.name}'")
        if not r.signature:
            diags.append(_error(
                "E4", f"relation '{r.name}' has an empty signature", span(r.line), r.name))
        if r.particularizes is not None:
            parent = relations.get(r.particularizes)
            if parent is None:
                diags.append(_error(
                    "E3", f"relation '{r.name}' particularizes undeclared "
                    f"relation '{r.particularizes}'", span(r.line), r.name, r.particularizes))
            elif parent.arity != r.arity:
                diags.append(_error(
                    "E7", f"relation '{r.name}' (arity {r.arity}) particularizes "
                    f"'{parent.name}' (arity {parent.arity})", span(r.line), r.name, parent.name))
    _check_particularization_cycles(onto, diags)

    for inst in instances.values() if unresolved else ():
        for cname in () if unresolved.isdisjoint(inst.concepts) else inst.concepts:
            need_concept(cname, inst.line, f"concept of instance '{inst.name}'")

    broken = unresolved or bad_primitives or min(times, default=0) < 0
    for lb in onto.labels.values() if broken else ():
        if lb.primitive in bad_primitives:
            diags.append(_error(
                "E4", f"unknown modeling primitive '{lb.primitive}'", span(lb.line), lb.concept))
        need_concept(lb.concept, lb.line, f"label {lb.primitive}")
        if lb.time < 0:
            diags.append(_error("E4", f"negative label time {lb.time}", span(lb.line), lb.concept))

    for concept, per_concept in onto.annotations.items() if unresolved else ():
        for ann in per_concept.values() if concept in unresolved else ():
            need_concept(ann.concept, ann.line, f"annotate {ann.axis}")

    for dis in onto.disjoints.values():
        if unresolved:
            need_concept(dis.first, dis.line, "disjointness")
            need_concept(dis.second, dis.line, "disjointness")
        if dis.first == dis.second:
            diags.append(_error(
                "E4", f"'{dis.first}' declared disjoint with itself", span(dis.line), dis.first))

    relation_of, args_of, time_of = zip(*onto.facts) if onto.facts else ((), (), ())
    shapes = {shape: found for shape in set(zip(relation_of, map(len, args_of), time_of))
              if (found := _fact_shape_findings(onto, *shape))}
    strangers = set(chain.from_iterable(args_of)).difference(instances)
    for f in onto.facts.values() if shapes or strangers else ():
        for code, message in shapes.get((f.relation, len(f.args), f.time), ()):
            diags.append(_error(code, message, span(f.line), f.relation))
        if f.relation not in relations or strangers.isdisjoint(f.args):
            continue
        for arg in f.args:
            if arg not in instances:
                kind = "concept" if arg in concepts else (
                    "relation" if arg in relations else None)
                detail = f"names a {kind}, not an instance" if kind else "is not declared"
                diags.append(_error("E3", f"fact argument '{arg}' {detail}", span(f.line), arg))


def _fact_shape_findings(onto: Ontology, relation: str, arity: int,
                         time: Optional[int]) -> list[tuple[str, str]]:
    """(code, message) of each finding on every fact of this shape."""
    rel = onto.relations.get(relation)
    if rel is None:
        detail = ("names a concept, not a relation" if relation in onto.concepts
                  else "is not declared")
        return [("E3", f"fact relation '{relation}' {detail}")]
    return [("E4", message) for wrong, message in (
        (arity != rel.arity, f"fact {relation} expects {rel.arity} argument(s), got {arity}"),
        (rel.temporal and time is None, f"fact {relation} requires a trailing time point"),
        (not rel.temporal and time is not None, f"fact {relation} takes no time point"),
        (time is not None and time < 0, f"negative time point {time}")) if wrong]


def _check_particularization_cycles(onto: Ontology, diags: list[Diagnostic]) -> None:
    # Every chain ends at a root, at an undeclared name or in a cycle.
    # One E7 names each cycle, and one more each relation leading into it.
    span = onto.source.span
    reaches: dict[str, Optional[str]] = {}  # walked relation -> its cycle's least name
    for name in onto.relations:
        walk: dict[str, int] = {}  # relation -> its position on this walk
        current = name
        while current in onto.relations and current not in reaches and current not in walk:
            walk[current] = len(walk)
            current = onto.relations[current].particularizes
        path = list(walk)
        if current in walk:
            tail, cycle = path[:walk[current]], path[walk[current]:]
            least = min(cycle)
            start = cycle.index(least)
            diags.append(_error("E7", f"particularization cycle through '{least}'",
                                span(onto.relations[least].line), *cycle[start:], *cycle[:start]))
            reaches.update(dict.fromkeys(cycle, least))
        else:
            tail, least = path, reaches.get(current)
        for r in tail:
            reaches[r] = least
            if least is not None:
                diags.append(_error(
                    "E7", f"relation '{r}' particularizes into the cycle through '{least}'",
                    span(onto.relations[r].line), r, least))
