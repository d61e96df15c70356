"""Subsumption closure and fact-base saturation.

The closure is one pass over the concepts in declaration order, kernel
first: a concept is numbered once its supertypes are, and a concept
declared before a supertype waits on a worklist until that supertype is
numbered (`compute_closure`).

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

`_RuleTable` holds what the ontology makes of each rule: M-up is the
closure, and D1 and D2 read kernel concepts only.  Two evaluators apply
the rule set, as in semi-naive Datalog evaluation.  `saturate` applies
all eight rules set-at-a-time on bitsets.  Each instance's memberships
are one bitset over the closure's concept bits, closed under M-up by a
union with an ancestor bitset.  It ORs in the asserted, D3 and D4
memberships, fires D1 once on its candidate actions and D2 once on the
`hasForSubject` facts, each a bit test, then serves D5 and D6 from a
worklist that holds each instance with a D5 or D6 key once, and again
only when it gains one.  `_Engine` applies the rules entry by entry with
their premises: a FIFO queue in which each entry keeps the first
derivation that reaches it.  `FactBase.trace` runs it on first read, and
`okc explain` prints these traces.

One pass of D1 and D2 suffices because the bits they read (AC, APO, ASO,
Proposition, IdaConcept) are final once the asserted, D3 and D4
memberships are in; no later membership adds one:
- kernel declarations are fixed, so kernel concepts keep these ancestors;
- a role concept's only supertype is Data or Result, whose ancestors are
  Patient, Content, MOB, NPOB, ED and PT;
- a conjunction's supertypes are its operands, which the instance has
  (the loader refuses a definition with asserted parents);
- D1 and D2 add Interaction and Subject, whose new ancestors stop at AC
  and IdaConcept, which they require.

Both evaluators are exact:
- R-up alone derives ground facts, each from one fact below along one
  particularization edge, so `FactBase` reads them through `_RuleTable`'s
  edges instead of storing them.  R-up keeps the arguments, so what
  reads only arguments reads the asserted facts as they are.  The FIFO
  engine derives one first from the asserted fact in the nearest
  relation below, the least key among equals, and `line_of`
  follows that rule.
- Rules join entries only through the arguments of asserted facts, so
  the entries of one component (instances linked by facts, with those
  facts) never meet another component's in a rule body, and the queue
  keeps their relative order.  Tracing one instance's component
  (`instance_component`) gives the traces of a full run.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from . import kernel
from .model import Ground, Ontology, direct_supers


class SubsumptionClosure:
    """Reflexive-transitive subsumption over all declared concepts.

    Concept i is bit i, numbered in the order in which `compute_closure`
    settles the concepts, each after its supertypes; no output reads the
    numbers.  Each concept keeps its ancestors, and only its ancestors, as
    an integer bitset, so a 10,000-deep chain costs megabytes where one
    frozenset per concept would cost gigabytes.
    Questions about what a concept subsumes are asked from below: walk
    the concepts and read their ancestors under a mask (`ancestor_bits`),
    and name them by walking a sparse set's bits or a dense set's digits.
    """

    def __init__(self, bit: dict[str, int], up: list[int]):
        self._names = tuple(bit)  # bit[name] is the name's index, in dict order
        self._bit = bit
        self._up = up

    def subsumes(self, ancestor: str, descendant: str) -> bool:
        """True iff every instance of `descendant` is one of `ancestor`."""
        a = self._bit.get(ancestor)
        d = self._bit.get(descendant)
        return a is not None and d is not None and (self._up[d] >> a) & 1 == 1

    def ancestor_bits(self, concept: str, among: int = -1) -> int:
        """The ancestors of `concept` in the bitset `among`, as a bitset; 0 if unknown."""
        i = self._bit.get(concept)
        return 0 if i is None else self._up[i] & among

    def ancestors(self, concept: str, among: int = -1) -> frozenset[str]:
        """Subsumers of `concept`; only those in the bitset `among`, if given."""
        return self._decode(self.ancestor_bits(concept, among))

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
        if bits.bit_count() * 20 < bits.bit_length():  # sparse: walk the set bits
            return frozenset(_bit_names(self._names, bits))
        digits = bin(bits)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        return frozenset(compress(self._names, digits))  # digits[i] is bit i, as 0 or 1


def compute_closure(ontology: Ontology) -> SubsumptionClosure:
    """Subsumption over asserted edges, role definitions and conjunctions.

    One pass over the concepts in declaration order settles each concept
    once its supertypes are settled: it takes the next bit and joins their
    ancestor bitsets.  A concept that meets an unsettled supertype waits on
    it with the bitset joined so far; when that supertype settles, its
    bitset is joined and the concept resumes from a worklist, so depth
    costs no stack.  An undeclared supertype is ignored.  A concept still
    waiting at the end lies on or under a cycle, and ValueError is raised;
    `check_w1` names the cycle.
    """
    concepts = ontology.concepts
    bit: dict[str, int] = {}
    up: list[int] = []
    waiting: dict[str, list] = {}  # unsettled supertype -> (concept, supertypes left, bits)
    for concept, decl in concepts.items():
        supers = direct_supers(decl)
        bits = 1 << len(up)
        for p in supers:  # the common case: every supertype is settled
            i = bit.get(p)
            if i is None:
                work = [(concept, iter(supers), 0)]
                break
            bits |= up[i]
        else:
            bit[concept] = len(up)
            up.append(bits)
            if concept not in waiting:
                continue
            work = [(n, left, b | bits) for n, left, b in waiting.pop(concept)]
        while work:
            name, left, bits = work.pop()
            for p in left:
                i = bit.get(p)
                if i is not None:
                    bits |= up[i]
                elif p in concepts:
                    waiting.setdefault(p, []).append((name, left, bits))
                    break
            else:
                bits |= 1 << len(up)
                bit[name] = len(up)
                up.append(bits)
                work += [(n, left, b | bits) for n, left, b in waiting.pop(name, ())]
    if waiting:
        raise ValueError("subsumption cycle; check_w1 reports it")
    return SubsumptionClosure(bit, up)


def find_subsumption_cycles(ontology: Ontology) -> list[tuple[str, ...]]:
    """Nontrivial strongly connected components of the concept graph, by
    Kosaraju-Sharir: a depth-first pass lists each concept after all it
    reaches; searches of the reversed edges, started in the reverse of
    that list, then each collect one component."""
    concepts = ontology.concepts
    edges = {n: [p for p in direct_supers(c) if p in concepts] for n, c in concepts.items()}
    finished: list[str] = []
    seen: set[str] = set()
    for root in edges:
        stack = [] if root in seen else [(root, iter(edges[root]))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(edges[nxt])))
                    break
            else:
                stack.pop()
                finished.append(node)
    below: dict[str, list[str]] = {n: [] for n in edges}
    for n, parents in edges.items():
        for p in parents:
            below[p].append(n)
    placed: set[str] = set()
    sccs: list[tuple[str, ...]] = []
    for root in reversed(finished):
        component = [] if root in placed else [root]
        placed.add(root)
        for node in component:  # grows while it is walked
            for child in below[node]:
                if child not in placed:
                    placed.add(child)
                    component.append(child)
        if len(component) > 1 or component == [root] and root in edges[root]:
            sccs.append(tuple(sorted(component)))
    return sorted(sccs)


# --- fact base ---------------------------------------------------------------


class Member(NamedTuple):
    instance: str
    concept: str

    def render(self) -> str:
        return f"{self.instance} : {self.concept}"


Entry = Union[Member, Ground]

RULE_ASSERTED = "asserted"


class Derivation(NamedTuple):
    rule: str
    premises: tuple[Entry, ...]


_ASSERTED = Derivation(RULE_ASSERTED, ())


# --- the rule set ------------------------------------------------------------


class _RuleTable:
    """R-up and D3-D6 as one ontology instantiates them (M-up is the closure)."""

    # D3 and D4: relation -> (rule, concept its first argument joins)
    d34 = {kernel.REL_AFFECTED: ("D3", kernel.PATIENT),
           kernel.REL_DATA: ("D4", kernel.DATA),
           kernel.REL_RESULT: ("D4", kernel.RESULT)}

    def __init__(self, ontology: Ontology) -> None:
        # R-up: relation -> (parent, parent is temporal); r_down reverses it
        self.r_up: dict[str, tuple[str, bool]] = {}
        self.r_down: dict[str, list[str]] = {}
        for rel in ontology.relations.values():
            parent = ontology.relations.get(rel.particularizes)
            if parent is not None and (rel.temporal or not parent.temporal):
                self.r_up[rel.name] = (parent.name, parent.temporal)
                self.r_down.setdefault(parent.name, []).append(rel.name)
        # D5: covered concept -> (feeding relation, role), data roles first, by name
        self.d5: dict[str, list[tuple[str, str]]] = {}
        for c in sorted(ontology.role_definitions(), key=lambda d: (d.definition.mode, d.name)):
            relation = kernel.REL_DATA if c.definition.mode == "data" else kernel.REL_RESULT
            self.d5.setdefault(c.definition.reasoning_concept, []).append((relation, c.name))
        # D6: operand -> other operand -> (conjunction, type, formal role), by name
        self.d6: dict[str, dict[str, list[tuple[str, str, str]]]] = {}
        for c in sorted(ontology.conjunctions(), key=lambda d: d.name):
            left, right = c.definition
            for operand, other in ((left, right), (right, left)):
                self.d6.setdefault(operand, {}).setdefault(other, []).append((c.name, left, right))


def _bit_names(names: tuple[str, ...], bits: int) -> Iterator[str]:
    """The names of the set bits, highest first, clearing each: the bitset shrinks."""
    while bits:
        i = bits.bit_length() - 1
        yield names[i]
        bits ^= 1 << i


class FactBase:
    """Memberships and ground facts closed under the rule set.

    An instance's memberships are one bitset over the closure's concept
    bits, read through `has_member`, `instances_of` and `concepts_of`.
    Each asserted fact is stored once, by relation, and its readers take
    it as asserted under each relation above it (`under`).  Only
    `line_of` and `off_signature` map facts up R-up; `okc explain` reads
    the derived facts from `trace`.  `line_of` places a finding on a fact
    at its declaration's line, which `Ontology.source` makes a span.
    `ontology` and `closure` are what it was saturated from, which the
    validator checks read beside it.
    """

    def __init__(self, ontology: Ontology, closure: SubsumptionClosure,
                 rules: _RuleTable) -> None:
        self.ontology = ontology
        self.closure = closure
        self._rules = rules
        self._bits: dict[str, int] = {}  # instance -> concept bitset
        self._asserted: dict[str, list[Ground]] = {}
        for key in ontology.facts:  # a fact's key is its Ground
            self._asserted.setdefault(key.relation, []).append(key)
        self._masks = {r.name: tuple(closure.mask(union) for union in r.signature)
                       for r in ontology.relations.values()}
        # relation -> the distinct signature masks of it and the relations above
        self._masks_above: dict[Optional[str], frozenset] = {None: frozenset()}

    @cached_property
    def disjoint_instances(self) -> dict[str, set[str]]:
        """Concept named in a disjoint pair -> its instances; no other concept.

        W2 and A3 read only these (Reasoning/Communication is a kernel
        disjoint pair), so each distinct bitset under their mask is decoded once.
        """
        mask = self.closure.mask(c for pair in self.ontology.disjoints for c in pair)
        groups: dict[int, list[str]] = {}
        for instance, bits in zip(self._bits, map(mask.__and__, self._bits.values())):
            groups.setdefault(bits, []).append(instance)
        out: dict[str, set[str]] = {}
        for bits, instances in groups.items():
            for concept in self.closure._decode(bits):
                out.setdefault(concept, set()).update(instances)
        return out

    @cached_property
    def trace(self) -> dict[Entry, Derivation]:
        """Derivation of every entry: the FIFO engine, run on first read."""
        return _Engine(self.ontology, self._rules).run()

    def has_member(self, instance: str, concept: str) -> bool:
        bit = self.closure._bit.get(concept)
        return bit is not None and (self._bits.get(instance, 0) >> bit) & 1 == 1

    def instances_of(self, concept: str) -> set[str]:
        bit = self.closure._bit.get(concept)
        return set() if bit is None else {x for x, now in self._bits.items() if now >> bit & 1}

    def concepts_of(self, instance: str) -> frozenset[str]:
        return self.closure._decode(self._bits.get(instance, 0))

    def under(self, relation: str) -> Iterator[Ground]:
        """The asserted facts of `relation` and of every relation below it, as
        asserted: R-up changes no argument, and keeps the time when `relation`
        is temporal, whose relations below are temporal too."""
        below = [relation]
        for lower in below:  # grows while it is walked; E7 refuses cycles
            below.extend(self._rules.r_down.get(lower, ()))
            yield from self._asserted.get(lower, ())

    def line_of(self, g: Ground) -> int:
        """Line of the asserted fact `g` is, or else of the one in the nearest
        relation below that R-up maps to `g`, the least key among equals."""
        key = g if g in self.ontology.facts else min(
            (steps, asserted) for asserted in self._derivers[g.args]
            for steps, up in enumerate(self._r_up_chain(asserted)) if up == g)[1]
        return self.ontology.facts[key].line

    def off_signature(self) -> Iterator[Ground]:
        """Each ground with an argument outside its relation's signature, once.
        Per relation and distinct signature on its chain, the argument values
        at each position minus those whose bitset meets the mask are the bad
        ones; only the asserted facts on a bad value are mapped up."""
        bits, seen = self._bits, set()
        for relation, asserted in self._asserted.items():
            columns = [set(column) for column in zip(*(g.args for g in asserted))]
            for masks in self._signatures_above(relation):
                bad = [{v for v in column if not bits[v] & mask}
                       for column, mask in zip(columns, masks)]
                for g in asserted if any(bad) else ():
                    if any(arg in values for arg, values in zip(g.args, bad)):
                        for up in self._r_up_chain(g):
                            if up not in seen and self._masks[up.relation] == masks:
                                seen.add(up)
                                yield up

    def _r_up_chain(self, g: Ground) -> Iterator[Ground]:
        """`g`, then each fact R-up derives from it, nearest first."""
        yield g
        while g.relation in self._rules.r_up:
            parent, temporal = self._rules.r_up[g.relation]
            g = Ground(parent, g.args, g.time if temporal else None)
            yield g

    @cached_property
    def _derivers(self) -> dict[tuple[str, ...], list[Ground]]:
        """Arguments -> the keys of the asserted facts on them."""
        out: dict[tuple[str, ...], list[Ground]] = {}
        for key in self.ontology.facts:
            out.setdefault(key.args, []).append(key)
        return out

    def _signatures_above(self, relation: str) -> frozenset[tuple[int, ...]]:
        """Memoized per relation from its parent's, so a chain costs its length once."""
        memo, path = self._masks_above, []
        while relation not in memo:
            path.append(relation)
            relation = self._rules.r_up.get(relation, (None,))[0]
        above = memo[relation]
        for rel in reversed(path):
            own = self._masks[rel]
            memo[rel] = above = above if own in above else above | {own}
        return above

    # -- the least fixpoint of the memberships

    def _close_members(self) -> None:
        """M-up is a union with an ancestor bitset.  The asserted, D3, D4, D1
        and D2 memberships are ORed in directly; then each instance holding a
        D5 or D6 key is queued once, and again only when it gains a key."""
        onto, closure, rules = self.ontology, self.closure, self._rules
        bit, up, names, bits = closure._bit, closure._up, closure._names, self._bits
        for inst in onto.instances.values():
            now = 0
            for concept in inst.concepts:
                now |= up[bit[concept]]
            bits[inst.name] = now
        for relation, (_, concept) in rules.d34.items():
            joined = up[bit[concept]]
            for x in {g.args[0] for g in self.under(relation)}:
                bits[x] |= joined
        agents: dict[str, set[str]] = {}  # D1: an AC with an agentive participant
        for g in self.under(kernel.REL_AGENT):  # that is not its only agent
            agents.setdefault(g.args[1], set()).add(g.args[0])
        ac, agentive = 1 << bit[kernel.ACTION], closure.mask(kernel.AGENTIVE_UNION)
        for z, a in (g.args for g in self.under(kernel.REL_PARTICIPATION)):
            if a in agents and bits[a] & ac and bits[z] & agentive and agents[a] != {z}:
                bits[a] |= up[bit[kernel.INTERACTION]]
        proposition, idea = 1 << bit[kernel.PROPOSITION], 1 << bit[kernel.IDA_CONCEPT]
        for p, c in (g.args for g in self.under(kernel.REL_SUBJECT)):  # D2
            if bits[p] & proposition and bits[c] & idea:
                bits[c] |= up[bit[kernel.SUBJECT]]

        trigger = closure.mask(rules.d5) | closure.mask(rules.d6)
        others = {operand: closure.mask(by_other) for operand, by_other in rules.d6.items()}
        players: dict[str, dict[str, list[str]]] = {}  # D5 relation -> reasoning -> players
        for relation in {relation for keyed in rules.d5.values() for relation, _ in keyed}:
            by_reasoning = players[relation] = {}
            for g in self.under(relation):
                by_reasoning.setdefault(g.args[1], []).append(g.args[0])
        work = [x for x, now in bits.items() if now & trigger]
        done: dict[str, int] = {}

        def add(instance: str, concept: str) -> None:
            old = bits[instance]
            new = bits[instance] = old | up[bit[concept]]
            if (new ^ old) & trigger:
                work.append(instance)

        while work:
            x = work.pop()
            now = bits[x]
            new = (now ^ done.get(x, 0)) & trigger
            done[x] = now
            for concept in _bit_names(names, new):
                for relation, role in rules.d5.get(concept, ()):
                    for player in players[relation].get(x, ()):
                        add(player, role)
                pairs = now & others.get(concept, 0)
                for other in _bit_names(names, pairs) if pairs else ():
                    for conjunction, _, _ in rules.d6[concept][other]:
                        add(x, conjunction)


def saturate(ontology: Ontology, closure: SubsumptionClosure) -> FactBase:
    """Least fixpoint of the rule set over the asserted instance level."""
    facts = FactBase(ontology, closure, _RuleTable(ontology))
    facts._close_members()
    return facts


# --- derivation traces -------------------------------------------------------


class _Engine:
    """The rule set as a FIFO queue of entries; each entry keeps the first
    derivation that reaches it."""

    def __init__(self, ontology: Ontology, rules: _RuleTable):
        self.onto = ontology
        self.rules = rules
        self.trace: dict[Entry, Derivation] = {}
        self.by_arg: dict[tuple[str, int, str], list[Ground]] = {}
        # instance -> the concepts it has that key D5 or D6 in the table
        self.keyed: dict[str, list[str]] = {}
        self.queue: deque[Entry] = deque()
        # concept -> its parents, M-up's edges, found on the concept's first use
        self.up_edges: dict[str, tuple[str, ...]] = {}

    def add(self, entry: Entry, deriv: Derivation) -> bool:
        if entry in self.trace:
            return False
        self.trace[entry] = deriv
        if isinstance(entry, Ground):
            for position, value in enumerate(entry.args):
                self.by_arg.setdefault((entry.relation, position, value), []).append(entry)
        elif entry.concept in self.rules.d5 or entry.concept in self.rules.d6:
            self.keyed.setdefault(entry.instance, []).append(entry.concept)
        self.queue.append(entry)
        return True

    def has(self, instance: str, concept: str) -> bool:
        return Member(instance, concept) in self.trace

    def run(self) -> dict[Entry, Derivation]:
        for inst in sorted(self.onto.instances.values(), key=lambda d: d.name):
            for concept in sorted(inst.concepts):
                self.add(Member(inst.name, concept), _ASSERTED)
        for key in sorted(self.onto.facts):
            self.add(key, _ASSERTED)
        while self.queue:
            entry = self.queue.popleft()
            if isinstance(entry, Member):
                self.on_member(entry)
            else:
                self.on_ground(entry)
        return self.trace

    # -- triggers

    def on_member(self, m: Member) -> None:
        x, rules = m.instance, self.rules
        parents = self.up_edges.get(m.concept)
        if parents is None:
            decl = self.onto.concepts.get(m.concept)
            parents = self.up_edges[m.concept] = () if decl is None else tuple(
                p for p in sorted(direct_supers(decl)) if p in self.onto.concepts)
        for parent in parents:
            self.add(Member(x, parent), Derivation("M-up", (m,)))
        by_other = rules.d6.get(m.concept)
        if by_other:
            todo = sorted(c for other in self.keyed[x] if other in by_other
                          for c in by_other[other])
            for c in todo:  # in name order; one derived here can enable a later one
                conjunction, left, right = c
                if self.add(Member(x, conjunction),
                            Derivation("D6", (Member(x, left), Member(x, right)))):
                    for later in by_other.get(conjunction, ()):
                        if later > c:
                            insort(todo, later)
        for relation, role in rules.d5.get(m.concept, ()):
            for g in sorted(self.by_arg.get((relation, 1, x), ())):
                self.add(Member(g.args[0], role), Derivation("D5", (g, m)))
        if m.concept == kernel.ACTION:
            self.d1(x)
        if m.concept in kernel.AGENTIVE_UNION:
            for g in sorted(self.by_arg.get((kernel.REL_PARTICIPATION, 0, x), ())):
                self.d1(g.args[1])
        if m.concept in (kernel.PROPOSITION, kernel.IDA_CONCEPT):
            for g in sorted({*self.by_arg.get((kernel.REL_SUBJECT, 0, x), ()),
                             *self.by_arg.get((kernel.REL_SUBJECT, 1, x), ())}):
                self.d2(g)

    def on_ground(self, g: Ground) -> None:
        rules = self.rules
        edge = rules.r_up.get(g.relation)
        if edge is not None:
            parent, temporal = edge
            self.add(Ground(parent, g.args, g.time if temporal else None),
                     Derivation("R-up", (g,)))
        d34 = rules.d34.get(g.relation)
        if d34 is not None:
            rule, concept = d34
            self.add(Member(g.args[0], concept), Derivation(rule, (g,)))
        if g.relation in (kernel.REL_DATA, kernel.REL_RESULT):
            player, reasoning = g.args
            todo = sorted((role, c) for c in self.keyed.get(reasoning, ())
                          for rel, role in rules.d5.get(c, ()) if rel == g.relation)
            for role, covered in todo:  # in name order; grows while it is walked
                if self.add(Member(player, role),
                            Derivation("D5", (g, Member(reasoning, covered)))):
                    for rel, later in rules.d5.get(role, ()) if player == reasoning else ():
                        if rel == g.relation and later > role:
                            insort(todo, (later, role))
        if g.relation in (kernel.REL_AGENT, kernel.REL_PARTICIPATION):
            self.d1(g.args[1])
        if g.relation == kernel.REL_SUBJECT:
            self.d2(g)

    def d1(self, action: str) -> None:
        """`action : Interaction` by D1, from AC(action), an agent y and an
        agentive participant z other than y: the least such participation
        and the least agent on it."""
        if not self.has(action, kernel.ACTION) or self.has(action, kernel.INTERACTION):
            return
        agents = sorted(self.by_arg.get((kernel.REL_AGENT, 1, action), ()))
        participations = self.by_arg.get((kernel.REL_PARTICIPATION, 1, action), ())
        for pc in sorted(participations) if agents else ():
            z = pc.args[0]
            agentive = next((c for c in kernel.AGENTIVE_UNION if self.has(z, c)), None)
            agent = next((a for a in agents if a.args[0] != z), None)
            if agentive is not None and agent is not None:
                self.add(Member(action, kernel.INTERACTION), Derivation(
                    "D1", (Member(action, kernel.ACTION), agent, Member(z, agentive), pc)))
                return

    def d2(self, g: Ground) -> None:
        """`c : Subject` by D2 from `hasForSubject(p, c)`, if p is a
        Proposition and c an IdaConcept."""
        prop, idea = Member(g.args[0], kernel.PROPOSITION), Member(g.args[1], kernel.IDA_CONCEPT)
        if self.has(*prop) and self.has(*idea):
            self.add(Member(g.args[1], kernel.SUBJECT), Derivation("D2", (g, prop, idea)))


# --- explanation -------------------------------------------------------------


def instance_component(ontology: Ontology, instance: str) -> Ontology:
    """`ontology` cut down to the instances linked to `instance` through
    asserted facts, directly or not, and to those facts."""
    facts_by_arg: dict[str, list[Ground]] = {}
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
    return ontology._replace(
        instances={n: d for n, d in ontology.instances.items() if n in instances},
        facts={k: f for k, f in ontology.facts.items() if k in facts})


def explain_instance(factbase: FactBase, instance: str) -> str:
    """Human-readable derivation trace for one instance's memberships."""
    lines = [f"memberships of {instance}:"]
    for concept in sorted(factbase.concepts_of(instance)):
        entry = Member(instance, concept)
        lines.append("  " + _trace_line(factbase, entry))
    involved = sorted((g for g in factbase.trace if isinstance(g, Ground) and instance in g.args),
                      key=lambda g: (g.relation, g.args, -1 if g.time is None else g.time))
    if involved:
        lines.append(f"facts involving {instance}:")
        for g in involved:
            lines.append("  " + _trace_line(factbase, g))
    return "\n".join(lines) + "\n"


def _trace_line(factbase: FactBase, entry: Entry) -> str:
    deriv = factbase.trace[entry]
    if deriv.rule == RULE_ASSERTED:
        return f"{entry.render()}  [asserted]"
    line = f"{entry.render()}  [{deriv.rule}] from {', '.join(p.render() for p in deriv.premises)}"
    if deriv.rule == "M-up":  # the one premise is the entry one edge below
        return f"{line} ({deriv.premises[0].concept} specializes {entry.concept})"
    if deriv.rule == "R-up":
        return f"{line} ({deriv.premises[0].relation} particularizes {entry.relation})"
    return line
