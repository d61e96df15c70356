"""Subsumption closure and fact-base saturation.

Saturation closes the ground facts under a fixed monotone rule set, so
the least fixpoint is reached regardless of application order:

    M-up   membership propagates to every direct supertype
    R-up   a fact of a particularizing relation implies the parent fact
           (an atemporal child of a temporal parent derives nothing; the
           witness obligation is checked separately, see validator S2)
    D1     an action with an agent and a distinct agentive participant
           is an Interaction
    D2     an IdaConcept that is the subject of a Proposition is a Subject
    D3     whatever is affected by something is a Patient
    D4     a data participant is a Data; a result participant is a Result
    D5     a data/result participant of a reasoning covered by a role
           definition is a member of that role
    D6     membership in both conjuncts yields membership in the
           conjunction concept

Existential bodies are evaluated over declared instances only, and
disjointness is never used to derive anything; contradictions surface in
the validator.  Every derived entry records its rule code and premises,
which `okc explain` prints.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence, Union

from . import kernel
from .model import KERNEL_SPAN, ConceptDecl, Ontology, SourceSpan, _direct_supers


class SubsumptionClosure:
    """Reflexive-transitive subsumption over all declared concepts.

    Concept i is bit i, and each concept keeps its ancestors and its
    descendants as integer bitsets, so a 10,000-deep chain costs
    megabytes where one frozenset per concept would cost gigabytes.
    """

    def __init__(self, names: tuple[str, ...], up: list[int], down: list[int]):
        self._names = names
        self._bit = {name: i for i, name in enumerate(names)}
        self._up = up
        self._down = down

    def subsumes(self, ancestor: str, descendant: str) -> bool:
        """True iff every instance of `descendant` is one of `ancestor`."""
        a = self._bit.get(ancestor)
        d = self._bit.get(descendant)
        return a is not None and d is not None and (self._up[d] >> a) & 1 == 1

    def ancestors(self, concept: str) -> frozenset[str]:
        i = self._bit.get(concept)
        return frozenset() if i is None else self._decode(self._up[i])

    def descendants(self, concept: str) -> frozenset[str]:
        i = self._bit.get(concept)
        return frozenset() if i is None else self._decode(self._down[i])

    @property
    def concepts(self) -> tuple[str, ...]:
        return self._names

    def _decode(self, bits: int) -> frozenset[str]:
        digits = bin(bits)[:1:-1]  # digits[i] is bit i
        names = []
        i = digits.find("1")
        while i >= 0:
            names.append(self._names[i])
            i = digits.find("1", i + 1)
        return frozenset(names)


def direct_supers(concept: ConceptDecl) -> tuple[str, ...]:
    """Asserted parents plus definition-implied supertypes."""
    return _direct_supers(concept)


def compute_closure(ontology: Ontology) -> SubsumptionClosure:
    """Subsumption over asserted edges, role definitions and conjunctions.

    Concepts are visited in topological order (Kahn), parents before
    children for ancestors and the reverse for descendants, so depth
    costs no stack.  The taxonomy must be acyclic: `check_w1` runs first.
    """
    names = sorted(ontology.concepts)
    parents = {n: sorted({p for p in direct_supers(ontology.concepts[n])
                          if p in ontology.concepts})
               for n in names}
    children: dict[str, list[str]] = {n: [] for n in names}
    for n in names:
        for p in parents[n]:
            children[p].append(n)
    waiting = {n: len(parents[n]) for n in names}
    order = [n for n in names if not waiting[n]]
    for n in order:  # grows while it is walked
        for child in children[n]:
            waiting[child] -= 1
            if not waiting[child]:
                order.append(child)
    if len(order) < len(names):
        stuck = min(n for n in names if waiting[n])
        raise ValueError(f"subsumption cycle above '{stuck}'; check_w1 reports it")
    bit = {n: i for i, n in enumerate(order)}
    up = [0] * len(order)
    for i, n in enumerate(order):
        bits = 1 << i
        for p in parents[n]:
            bits |= up[bit[p]]
        up[i] = bits
    down = [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        bits = 1 << i
        for child in children[order[i]]:
            bits |= down[bit[child]]
        down[i] = bits
    return SubsumptionClosure(tuple(order), up, down)


def find_subsumption_cycles(ontology: Ontology) -> list[tuple[str, ...]]:
    """Nontrivial strongly connected components of the concept graph."""
    names = sorted(ontology.concepts)
    edges = {n: tuple(p for p in direct_supers(ontology.concepts[n])
                      if p in ontology.concepts)
             for n in names}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges[node]:
                    sccs.append(tuple(sorted(component)))

    for name in names:
        if name not in index:
            strongconnect(name)
    return sorted(sccs)


# --- fact base ---------------------------------------------------------------


class Member(NamedTuple):
    instance: str
    concept: str

    def render(self) -> str:
        return f"{self.instance} : {self.concept}"


class Ground(NamedTuple):
    relation: str
    args: tuple[str, ...]
    time: Optional[int]

    def render(self) -> str:
        parts = list(self.args) + ([] if self.time is None else [str(self.time)])
        return f"{self.relation}({', '.join(parts)})"


Entry = Union[Member, Ground]

RULE_ASSERTED = "asserted"
RULE_CODES = ("M-up", "R-up", "D1", "D2", "D3", "D4", "D5", "D6")


class Derivation(NamedTuple):
    rule: str
    premises: tuple[Entry, ...]
    note: str = ""


def entry_sort_key(entry: Entry) -> tuple:
    if isinstance(entry, Member):
        return (0, entry.instance, entry.concept)
    return (1, entry.relation, entry.args, -1 if entry.time is None else entry.time)


class FactBase:
    """Memberships and ground facts closed under the rule set.

    Every ground fact is listed once under each of its argument
    positions, keyed by (relation, position, value), so the rule bodies
    and checks join on one bucket instead of scanning a relation.
    """

    def __init__(self) -> None:
        self.members: set[Member] = set()
        self.grounds: set[Ground] = set()
        self.trace: dict[Entry, Derivation] = {}
        self._spans: dict[Entry, SourceSpan] = {}
        # indexes
        self.members_of: dict[str, set[str]] = {}     # instance -> concepts
        self.instances_of: dict[str, set[str]] = {}   # concept -> instances
        self.grounds_by_rel: dict[str, set[Ground]] = {}
        self._by_arg: dict[tuple[str, int, str], list[Ground]] = {}

    def has_member(self, instance: str, concept: str) -> bool:
        return Member(instance, concept) in self.members

    def concepts_of(self, instance: str) -> set[str]:
        return self.members_of.get(instance, set())

    def facts_of(self, relation: str) -> set[Ground]:
        return self.grounds_by_rel.get(relation, set())

    def facts_with(self, relation: str, position: int, value: str) -> Sequence[Ground]:
        """Facts of `relation` whose argument at `position` is `value`."""
        return self._by_arg.get((relation, position, value), ())

    def span_of(self, entry: Entry) -> SourceSpan:
        """Span of the entry, following derivations back to an asserted one."""
        current = entry
        seen = set()
        while current not in self._spans:
            deriv = self.trace.get(current)
            if deriv is None or not deriv.premises or current in seen:
                return KERNEL_SPAN
            seen.add(current)
            current = deriv.premises[0]
        return self._spans[current]

    def _insert(self, entry: Entry) -> bool:
        if isinstance(entry, Member):
            if entry in self.members:
                return False
            self.members.add(entry)
            self.members_of.setdefault(entry.instance, set()).add(entry.concept)
            self.instances_of.setdefault(entry.concept, set()).add(entry.instance)
            return True
        if entry in self.grounds:
            return False
        self.grounds.add(entry)
        self.grounds_by_rel.setdefault(entry.relation, set()).add(entry)
        for position, value in enumerate(entry.args):
            self._by_arg.setdefault((entry.relation, position, value), []).append(entry)
        return True

    def add_asserted(self, entry: Entry, span: SourceSpan) -> bool:
        added = self._insert(entry)
        if added:
            self.trace[entry] = Derivation(RULE_ASSERTED, ())
            self._spans[entry] = span
        return added

    def add_derived(self, entry: Entry, rule: str, premises: tuple[Entry, ...],
                    note: str = "") -> bool:
        added = self._insert(entry)
        if added:
            self.trace[entry] = Derivation(rule, premises, note)
        return added

    def entries(self) -> list[Entry]:
        return sorted(self.members, key=entry_sort_key) + \
            sorted(self.grounds, key=entry_sort_key)


# --- saturation engine -------------------------------------------------------


class _Engine:
    def __init__(self, ontology: Ontology, closure: SubsumptionClosure):
        self.onto = ontology
        self.closure = closure
        self.fb = FactBase()
        self.queue: deque[Entry] = deque()
        # role definitions indexed by the relation that feeds them, and
        # by the reasoning concept they cover (data roles first)
        self.roles_by_rel: dict[str, list[ConceptDecl]] = {
            kernel.REL_DATA: [], kernel.REL_RESULT: []}
        for c in sorted(ontology.role_definitions(), key=lambda d: d.name):
            rel = kernel.REL_DATA if c.definition.mode == "data" else kernel.REL_RESULT
            self.roles_by_rel[rel].append(c)
        self.roles_by_reasoning: dict[str, list[tuple[str, ConceptDecl]]] = {}
        for rel, roles in self.roles_by_rel.items():
            for c in roles:
                self.roles_by_reasoning.setdefault(
                    c.definition.reasoning_concept, []).append((rel, c))
        # conjunctions indexed by either operand
        self.conjunctions_by_operand: dict[str, list[ConceptDecl]] = {}
        for c in sorted(ontology.conjunctions(), key=lambda d: d.name):
            for operand in (c.definition.type_concept, c.definition.formal_role):
                self.conjunctions_by_operand.setdefault(operand, []).append(c)
        # M-up edges with their trace notes, built on a concept's first use
        self.up_edges: dict[str, tuple[tuple[str, str], ...]] = {}

    def push(self, added: bool, entry: Entry) -> None:
        if added:
            self.queue.append(entry)

    def run(self) -> FactBase:
        for inst in sorted(self.onto.instances.values(), key=lambda d: d.name):
            for concept in sorted(inst.concepts):
                entry = Member(inst.name, concept)
                self.push(self.fb.add_asserted(entry, inst.span), entry)
        for fact in sorted(self.onto.facts.values(), key=lambda f: f.key()):
            entry = Ground(fact.relation, fact.args, fact.time)
            self.push(self.fb.add_asserted(entry, fact.span), entry)
        while self.queue:
            entry = self.queue.popleft()
            if isinstance(entry, Member):
                self.on_member(entry)
            else:
                self.on_ground(entry)
        return self.fb

    # -- triggers

    def on_member(self, m: Member) -> None:
        edges = self.up_edges.get(m.concept)
        if edges is None:
            decl = self.onto.concepts.get(m.concept)
            edges = self.up_edges[m.concept] = () if decl is None else tuple(
                (parent, f"{m.concept} specializes {parent}")
                for parent in sorted(direct_supers(decl)) if parent in self.onto.concepts)
        for parent, note in edges:
            derived = Member(m.instance, parent)
            self.push(self.fb.add_derived(derived, "M-up", (m,), note), derived)
        for conj in self.conjunctions_by_operand.get(m.concept, ()):
            self.try_d6(m.instance, conj)
        for rel_name, role in self.roles_by_reasoning.get(m.concept, ()):
            for g in sorted(self.fb.facts_with(rel_name, 1, m.instance)):
                self.try_d5(g, role)
        if m.concept == kernel.ACTION:
            self.try_d1(m.instance)
        if m.concept in kernel.AGENTIVE_UNION:
            for g in sorted(self.fb.facts_with(kernel.REL_PARTICIPATION, 0, m.instance)):
                self.try_d1(g.args[1])
        if m.concept in (kernel.PROPOSITION, kernel.IDA_CONCEPT):
            for g in sorted({*self.fb.facts_with(kernel.REL_SUBJECT, 0, m.instance),
                             *self.fb.facts_with(kernel.REL_SUBJECT, 1, m.instance)}):
                self.try_d2(g)

    def on_ground(self, g: Ground) -> None:
        rel = self.onto.relations.get(g.relation)
        if rel is not None and rel.particularizes in self.onto.relations:
            parent = self.onto.relations[rel.particularizes]
            if not (rel.temporal is False and parent.temporal is True):
                derived = Ground(parent.name, g.args, g.time if parent.temporal else None)
                self.push(self.fb.add_derived(derived, "R-up", (g,),
                                              f"{rel.name} particularizes {parent.name}"),
                          derived)
        if g.relation == kernel.REL_AFFECTED:
            derived = Member(g.args[0], kernel.PATIENT)
            self.push(self.fb.add_derived(derived, "D3", (g,)), derived)
        if g.relation == kernel.REL_DATA:
            derived = Member(g.args[0], kernel.DATA)
            self.push(self.fb.add_derived(derived, "D4", (g,)), derived)
        if g.relation == kernel.REL_RESULT:
            derived = Member(g.args[0], kernel.RESULT)
            self.push(self.fb.add_derived(derived, "D4", (g,)), derived)
        if g.relation in self.roles_by_rel:
            for role in self.roles_by_rel[g.relation]:
                self.try_d5(g, role)
        if g.relation == kernel.REL_AGENT:
            self.try_d1(g.args[1])
        if g.relation == kernel.REL_PARTICIPATION:
            self.try_d1(g.args[1])
        if g.relation == kernel.REL_SUBJECT:
            self.try_d2(g)

    # -- rule bodies

    def try_d1(self, action: str) -> None:
        """Interaction: AC(x) with an agent y and a distinct agentive z in PC."""
        ac = Member(action, kernel.ACTION)
        if ac not in self.fb.members:
            return
        agents = sorted(self.fb.facts_with(kernel.REL_AGENT, 1, action))
        if not agents:
            return
        for pc in sorted(self.fb.facts_with(kernel.REL_PARTICIPATION, 1, action)):
            z = pc.args[0]
            z_agentive = next((Member(z, c) for c in kernel.AGENTIVE_UNION
                               if self.fb.has_member(z, c)), None)
            if z_agentive is None:
                continue
            agent_fact = next((a for a in agents if a.args[0] != z), None)
            if agent_fact is None:
                continue
            derived = Member(action, kernel.INTERACTION)
            self.push(self.fb.add_derived(
                derived, "D1", (ac, agent_fact, z_agentive, pc)), derived)
            return

    def try_d2(self, g: Ground) -> None:
        prop, idea = g.args
        prop_m = Member(prop, kernel.PROPOSITION)
        idea_m = Member(idea, kernel.IDA_CONCEPT)
        if prop_m in self.fb.members and idea_m in self.fb.members:
            derived = Member(idea, kernel.SUBJECT)
            self.push(self.fb.add_derived(derived, "D2", (g, prop_m, idea_m)), derived)

    def try_d5(self, g: Ground, role: ConceptDecl) -> None:
        covered = Member(g.args[1], role.definition.reasoning_concept)
        if covered in self.fb.members:
            derived = Member(g.args[0], role.name)
            self.push(self.fb.add_derived(derived, "D5", (g, covered)), derived)

    def try_d6(self, instance: str, conj: ConceptDecl) -> None:
        left = Member(instance, conj.definition.type_concept)
        right = Member(instance, conj.definition.formal_role)
        if left in self.fb.members and right in self.fb.members:
            derived = Member(instance, conj.name)
            self.push(self.fb.add_derived(derived, "D6", (left, right)), derived)


def saturate(ontology: Ontology, closure: SubsumptionClosure) -> FactBase:
    """Least fixpoint of the rule set over the asserted instance level."""
    return _Engine(ontology, closure).run()


# --- explanation -------------------------------------------------------------


def explain_instance(ontology: Ontology, factbase: FactBase, instance: str) -> str:
    """Human-readable derivation trace for one instance's memberships."""
    lines = [f"memberships of {instance}:"]
    for concept in sorted(factbase.concepts_of(instance)):
        entry = Member(instance, concept)
        lines.append("  " + _trace_line(factbase, entry))
    involved = sorted(
        (g for g in factbase.grounds if instance in g.args), key=entry_sort_key)
    if involved:
        lines.append(f"facts involving {instance}:")
        for g in involved:
            lines.append("  " + _trace_line(factbase, g))
    return "\n".join(lines) + "\n"


def _trace_line(factbase: FactBase, entry: Entry) -> str:
    deriv = factbase.trace[entry]
    if deriv.rule == RULE_ASSERTED:
        return f"{entry.render()}  [asserted]"
    premises = ", ".join(p.render() for p in deriv.premises)
    note = f" ({deriv.note})" if deriv.note else ""
    return f"{entry.render()}  [{deriv.rule}] from {premises}{note}"
