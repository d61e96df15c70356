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
the validator.

The fixpoint and the derivation traces are computed apart.  `saturate`
computes the fixpoint alone: each instance's memberships are one bitset
over the closure's concept bits, closed under M-up by one union with an
ancestor bitset.  Derivation traces, which `okc explain` prints, come
from a FIFO queue of entries in which each entry keeps the first
derivation that reaches it; `FactBase.trace` runs it on first read.
Both are exact:

- R-up is the only rule that derives a ground fact, and its premise is
  a ground fact.  Members never enqueue grounds, so a FIFO queue over
  the grounds alone records the ground derivations the full queue
  records, and `saturate` keeps those (S1, S2, A13 and R13 cite their
  spans).
- Rules join entries only through the arguments of asserted facts, so
  the entries of one component (instances linked by facts, with those
  facts) never meet another component's in a rule body, and the queue
  keeps their relative order.  Tracing one instance's component
  (`instance_component`) gives the traces of a full run.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import kernel
from .model import KERNEL_SPAN, ConceptDecl, Ontology, SourceSpan, direct_supers


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

    def ancestors(self, concept: str, among: int = -1) -> frozenset[str]:
        """Subsumers of `concept`; only those in the bitset `among`, if given."""
        i = self._bit.get(concept)
        return frozenset() if i is None else self._decode(self._up[i] & among)

    def descendants(self, concept: str, among: int = -1) -> frozenset[str]:
        """Concepts `concept` subsumes; only those in the bitset `among`, if given."""
        i = self._bit.get(concept)
        return frozenset() if i is None else self._decode(self._down[i] & among)

    def mask(self, concepts: Iterable[str]) -> int:
        """Bitset of the given concepts, for `among`; unknown names are left out."""
        bits = 0
        for concept in concepts:
            i = self._bit.get(concept)
            if i is not None:
                bits |= 1 << i
        return bits

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


_ASSERTED = Derivation(RULE_ASSERTED, ())


def entry_sort_key(entry: Entry) -> tuple:
    if isinstance(entry, Member):
        return (0, entry.instance, entry.concept)
    return (1, entry.relation, entry.args, -1 if entry.time is None else entry.time)


def _r_up_edges(ontology: Ontology) -> dict[str, tuple[str, bool, str]]:
    """Relation -> (parent, parent is temporal, trace note) for every R-up edge."""
    edges = {}
    for rel in ontology.relations.values():
        parent = ontology.relations.get(rel.particularizes)
        if parent is not None and (rel.temporal or not parent.temporal):
            edges[rel.name] = (parent.name, parent.temporal,
                               f"{rel.name} particularizes {parent.name}")
    return edges


class FactBase:
    """Memberships and ground facts closed under the rule set.

    An instance's memberships are one integer bitset over the closure's
    concept bits.  Every ground fact is listed once under each of its
    argument positions, keyed by (relation, position, value), so the
    rule bodies and checks join on one bucket instead of scanning a
    relation.  Ground derivations are kept as the fixpoint is computed;
    `trace` builds the rest on first read.
    """

    def __init__(self, ontology: Ontology, closure: SubsumptionClosure) -> None:
        self._ontology = ontology
        self._closure = closure
        self._bits: dict[str, int] = {}  # instance -> concept bitset
        self.grounds: set[Ground] = set()
        self._r_up: dict[Ground, Derivation] = {}  # derivations of derived grounds
        self._by_rel: dict[str, set[Ground]] = {}
        self._by_arg: dict[tuple[str, int, str], list[Ground]] = {}

    @cached_property
    def members(self) -> set[Member]:
        decode = self._closure._decode
        return {Member(i, c) for i, bits in self._bits.items() for c in decode(bits)}

    @cached_property
    def disjoint_instances(self) -> dict[str, set[str]]:
        """Concept named in a disjoint pair -> its instances; no other concept.

        W2 and A3 read only these (Reasoning/Communication is a kernel
        disjoint pair), so each bitset is decoded under their mask alone.
        """
        mask = self._closure.mask(c for pair in self._ontology.disjoints for c in pair)
        out: dict[str, set[str]] = {}
        decoded: dict[int, frozenset[str]] = {}  # instances often share a bitset
        for instance, bits in self._bits.items():
            bits &= mask
            concepts = decoded.get(bits)
            if concepts is None:
                concepts = decoded[bits] = self._closure._decode(bits)
            for concept in concepts:
                out.setdefault(concept, set()).add(instance)
        return out

    @cached_property
    def trace(self) -> dict[Entry, Derivation]:
        """Derivation of every entry: the FIFO engine, run on first read."""
        return _Engine(self._ontology).run()

    def has_member(self, instance: str, concept: str) -> bool:
        bit = self._closure._bit.get(concept)
        return bit is not None and (self._bits.get(instance, 0) >> bit) & 1 == 1

    def concepts_of(self, instance: str) -> frozenset[str]:
        return self._closure._decode(self._bits.get(instance, 0))

    def facts_of(self, relation: str) -> set[Ground]:
        return self._by_rel.get(relation, set())

    def facts_with(self, relation: str, position: int, value: str) -> Sequence[Ground]:
        """Facts of `relation` whose argument at `position` is `value`."""
        return self._by_arg.get((relation, position, value), ())

    def span_of(self, entry: Entry) -> SourceSpan:
        """Span of the entry, following derivations back to an asserted one."""
        trace = self._r_up if isinstance(entry, Ground) else self.trace
        current = entry
        seen = set()
        while True:
            if isinstance(current, Ground):
                decl = self._ontology.facts.get(current)  # a Ground equals its fact's key
            else:
                decl = self._ontology.instances.get(current.instance)
                if decl is not None and current.concept not in decl.concepts:
                    decl = None
            if decl is not None:
                return decl.span
            deriv = trace.get(current)
            if deriv is None or not deriv.premises or current in seen:
                return KERNEL_SPAN
            seen.add(current)
            current = deriv.premises[0]

    def entries(self) -> list[Entry]:
        return sorted(self.members, key=entry_sort_key) + \
            sorted(self.grounds, key=entry_sort_key)

    # -- the least fixpoint

    def _add_ground(self, g: Ground) -> None:
        self.grounds.add(g)
        self._by_rel.setdefault(g.relation, set()).add(g)
        for position, value in enumerate(g.args):
            self._by_arg.setdefault((g.relation, position, value), []).append(g)

    def _close_grounds(self) -> None:
        """R-up as a FIFO queue over the ground facts alone."""
        edges = _r_up_edges(self._ontology)
        queue = [Ground(f.relation, f.args, f.time)
                 for f in sorted(self._ontology.facts.values(), key=lambda f: f.key())]
        for g in queue:
            self._add_ground(g)
        for g in queue:  # grows while it is walked
            edge = edges.get(g.relation)
            if edge is not None:
                parent, temporal, note = edge
                derived = Ground(parent, g.args, g.time if temporal else None)
                if derived not in self.grounds:
                    self._add_ground(derived)
                    self._r_up[derived] = Derivation("R-up", (g,), note)
                    queue.append(derived)

    def _close_members(self) -> None:
        """M-up is a union with the closure's ancestor bitset.  D3 and D4
        fire from the grounds; D1, D2, D5 and D6 fire from the bits an
        instance gained since it was last taken off the worklist."""
        onto = self._ontology
        bit, up, bits = self._closure._bit, self._closure._up, self._bits
        work: list[str] = []

        def add(instance: str, concept: str) -> None:
            old = bits.get(instance, 0)
            new = old | up[bit[concept]]
            if new != old:
                bits[instance] = new
                work.append(instance)

        for inst in onto.instances.values():
            for concept in inst.concepts:
                add(inst.name, concept)
        for relation, concept in ((kernel.REL_AFFECTED, kernel.PATIENT),
                                  (kernel.REL_DATA, kernel.DATA),
                                  (kernel.REL_RESULT, kernel.RESULT)):
            for g in self.facts_of(relation):
                add(g.args[0], concept)

        mask = self._closure.mask
        conjunctions = [(mask((c.definition.type_concept, c.definition.formal_role)), c.name)
                        for c in onto.conjunctions()]
        roles = [(mask((c.definition.reasoning_concept,)),
                  kernel.REL_DATA if c.definition.mode == "data" else kernel.REL_RESULT, c.name)
                 for c in onto.role_definitions()]
        any_operand = any_covered = 0
        for operands, _ in conjunctions:
            any_operand |= operands
        for covered, _, _ in roles:
            any_covered |= covered
        action, interaction = mask((kernel.ACTION,)), mask((kernel.INTERACTION,))
        agentive = mask(kernel.AGENTIVE_UNION)
        proposition, idea = mask((kernel.PROPOSITION,)), mask((kernel.IDA_CONCEPT,))

        def d1(act: str) -> None:
            own = bits.get(act, 0)
            if not own & action or own & interaction:
                return
            agents = self.facts_with(kernel.REL_AGENT, 1, act)
            for pc in self.facts_with(kernel.REL_PARTICIPATION, 1, act) if agents else ():
                z = pc.args[0]
                if bits.get(z, 0) & agentive and any(a.args[0] != z for a in agents):
                    add(act, kernel.INTERACTION)
                    return

        def d2(g: Ground) -> None:
            if bits.get(g.args[0], 0) & proposition and bits.get(g.args[1], 0) & idea:
                add(g.args[1], kernel.SUBJECT)

        done: dict[str, int] = {}
        while work:
            x = work.pop()
            now = bits[x]
            new = now & ~done.get(x, 0)
            if not new:
                continue
            done[x] = now
            if new & any_operand:
                for operands, name in conjunctions:
                    if new & operands and now & operands == operands:
                        add(x, name)
            if new & any_covered:
                for covered, relation, name in roles:
                    if new & covered:
                        for g in self.facts_with(relation, 1, x):
                            add(g.args[0], name)
            if new & action:
                d1(x)
            if new & agentive:
                for g in self.facts_with(kernel.REL_PARTICIPATION, 0, x):
                    d1(g.args[1])
            if new & proposition:
                for g in self.facts_with(kernel.REL_SUBJECT, 0, x):
                    d2(g)
            if new & idea:
                for g in self.facts_with(kernel.REL_SUBJECT, 1, x):
                    d2(g)


def saturate(ontology: Ontology, closure: SubsumptionClosure) -> FactBase:
    """Least fixpoint of the rule set over the asserted instance level."""
    facts = FactBase(ontology, closure)
    facts._close_grounds()
    facts._close_members()
    return facts


# --- derivation traces -------------------------------------------------------


class _Engine:
    """The rule set as a FIFO queue of entries; each entry keeps the first
    derivation that reaches it."""

    def __init__(self, ontology: Ontology):
        self.onto = ontology
        self.trace: dict[Entry, Derivation] = {}
        self.by_arg: dict[tuple[str, int, str], list[Ground]] = {}
        self.queue: deque[Entry] = deque()
        self.r_up = _r_up_edges(ontology)
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

    def add(self, entry: Entry, deriv: Derivation) -> None:
        if entry in self.trace:
            return
        self.trace[entry] = deriv
        if isinstance(entry, Ground):
            for position, value in enumerate(entry.args):
                self.by_arg.setdefault((entry.relation, position, value), []).append(entry)
        self.queue.append(entry)

    def facts_with(self, relation: str, position: int, value: str) -> list[Ground]:
        return self.by_arg.get((relation, position, value), [])

    def run(self) -> dict[Entry, Derivation]:
        for inst in sorted(self.onto.instances.values(), key=lambda d: d.name):
            for concept in sorted(inst.concepts):
                self.add(Member(inst.name, concept), _ASSERTED)
        for fact in sorted(self.onto.facts.values(), key=lambda f: f.key()):
            self.add(Ground(fact.relation, fact.args, fact.time), _ASSERTED)
        while self.queue:
            entry = self.queue.popleft()
            if isinstance(entry, Member):
                self.on_member(entry)
            else:
                self.on_ground(entry)
        return self.trace

    # -- triggers

    def on_member(self, m: Member) -> None:
        edges = self.up_edges.get(m.concept)
        if edges is None:
            decl = self.onto.concepts.get(m.concept)
            edges = self.up_edges[m.concept] = () if decl is None else tuple(
                (parent, f"{m.concept} specializes {parent}")
                for parent in sorted(direct_supers(decl)) if parent in self.onto.concepts)
        for parent, note in edges:
            self.add(Member(m.instance, parent), Derivation("M-up", (m,), note))
        for conj in self.conjunctions_by_operand.get(m.concept, ()):
            self.try_d6(m.instance, conj)
        for rel_name, role in self.roles_by_reasoning.get(m.concept, ()):
            for g in sorted(self.facts_with(rel_name, 1, m.instance)):
                self.try_d5(g, role)
        if m.concept == kernel.ACTION:
            self.try_d1(m.instance)
        if m.concept in kernel.AGENTIVE_UNION:
            for g in sorted(self.facts_with(kernel.REL_PARTICIPATION, 0, m.instance)):
                self.try_d1(g.args[1])
        if m.concept in (kernel.PROPOSITION, kernel.IDA_CONCEPT):
            for g in sorted({*self.facts_with(kernel.REL_SUBJECT, 0, m.instance),
                             *self.facts_with(kernel.REL_SUBJECT, 1, m.instance)}):
                self.try_d2(g)

    def on_ground(self, g: Ground) -> None:
        edge = self.r_up.get(g.relation)
        if edge is not None:
            parent, temporal, note = edge
            self.add(Ground(parent, g.args, g.time if temporal else None),
                     Derivation("R-up", (g,), note))
        if g.relation == kernel.REL_AFFECTED:
            self.add(Member(g.args[0], kernel.PATIENT), Derivation("D3", (g,)))
        if g.relation == kernel.REL_DATA:
            self.add(Member(g.args[0], kernel.DATA), Derivation("D4", (g,)))
        if g.relation == kernel.REL_RESULT:
            self.add(Member(g.args[0], kernel.RESULT), Derivation("D4", (g,)))
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
        derived = Member(action, kernel.INTERACTION)
        if ac not in self.trace or derived in self.trace:
            return
        agents = sorted(self.facts_with(kernel.REL_AGENT, 1, action))
        if not agents:
            return
        for pc in sorted(self.facts_with(kernel.REL_PARTICIPATION, 1, action)):
            z = pc.args[0]
            z_agentive = next((Member(z, c) for c in kernel.AGENTIVE_UNION
                               if Member(z, c) in self.trace), None)
            if z_agentive is None:
                continue
            agent_fact = next((a for a in agents if a.args[0] != z), None)
            if agent_fact is None:
                continue
            self.add(derived, Derivation("D1", (ac, agent_fact, z_agentive, pc)))
            return

    def try_d2(self, g: Ground) -> None:
        prop, idea = g.args
        prop_m = Member(prop, kernel.PROPOSITION)
        idea_m = Member(idea, kernel.IDA_CONCEPT)
        if prop_m in self.trace and idea_m in self.trace:
            self.add(Member(idea, kernel.SUBJECT), Derivation("D2", (g, prop_m, idea_m)))

    def try_d5(self, g: Ground, role: ConceptDecl) -> None:
        covered = Member(g.args[1], role.definition.reasoning_concept)
        if covered in self.trace:
            self.add(Member(g.args[0], role.name), Derivation("D5", (g, covered)))

    def try_d6(self, instance: str, conj: ConceptDecl) -> None:
        left = Member(instance, conj.definition.type_concept)
        right = Member(instance, conj.definition.formal_role)
        if left in self.trace and right in self.trace:
            self.add(Member(instance, conj.name), Derivation("D6", (left, right)))


# --- explanation -------------------------------------------------------------


def instance_component(ontology: Ontology, instance: str) -> Ontology:
    """`ontology` cut down to the instances linked to `instance` through
    asserted facts, directly or not, and to those facts."""
    facts_by_arg: dict[str, list[tuple]] = {}
    for key, fact in ontology.facts.items():
        for arg in fact.args:
            facts_by_arg.setdefault(arg, []).append(key)
    instances, facts = {instance}, set()
    todo = [instance]
    while todo:
        for key in facts_by_arg.get(todo.pop(), ()):
            if key not in facts:
                facts.add(key)
                fresh = [a for a in ontology.facts[key].args if a not in instances]
                instances.update(fresh)
                todo += fresh
    return Ontology(
        ontology.concepts, ontology.relations,
        {n: d for n, d in ontology.instances.items() if n in instances},
        ontology.annotations, ontology.labels,
        {k: f for k, f in ontology.facts.items() if k in facts},
        ontology.disjoints)


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
