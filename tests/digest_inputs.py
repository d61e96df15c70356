"""Text generators for the inputs of `tests/output_digests.py` and
`tests/parse_digest.py`.

The digest scripts run over the `src` of other checkouts too, so this
module imports nothing from `okc`: a name that only one checkout defines
cannot stop the other's run.  `helpers` re-exports the model texts.
"""

from __future__ import annotations

import random
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# --- shapes whose bitsets are wide or dense ----------------------------------


def shared_operand_source(n: int) -> str:
    """n conjunctions over one shared type: each Model instance m_i is data
    of a reasoning r_i and so plays role Role_i and conjunction C_i."""
    lines = []
    for i in range(n):
        lines += [f"concept R{i:05d} specializes Reasoning",
                  f"role Role{i:05d} = data of R{i:05d}",
                  f"concept C{i:05d} = Model and Role{i:05d}",
                  f"instance r{i:05d} : R{i:05d}", f"instance m{i:05d} : Model",
                  f"fact PRE(r{i:05d}, 0)", f"fact PC(m{i:05d}, r{i:05d}, 0)",
                  f"fact isDataOf(m{i:05d}, r{i:05d})"]
    return "\n".join(lines) + "\n"


def role_fan_in_source(n: int) -> str:
    """n data roles, each of its own reasoning concept, and n data
    participants of one reasoning instance r, which only the first role
    covers."""
    lines = ["instance r : R00000", "fact PRE(r, 0)"]
    for i in range(n):
        lines += [f"concept R{i:05d} specializes Reasoning",
                  f"role Role{i:05d} = data of R{i:05d}", f"instance m{i:05d} : Model",
                  f"fact PC(m{i:05d}, r, 0)", f"fact isDataOf(m{i:05d}, r)"]
    return "\n".join(lines) + "\n"


def wide_disjointness_source(n: int) -> str:
    """Concept A declared disjoint with n others B_i, with n concepts C_i
    under it; only C00000 is also under a partner, B00000."""
    lines = ["concept A specializes Reasoning", "instance c : C00001"]
    for i in range(n):
        lines += [f"concept B{i:05d} specializes Reasoning", f"disjoint A B{i:05d}",
                  f"concept C{i:05d} specializes A{', B00000' if i == 0 else ''}"]
    return "\n".join(lines) + "\n"


def deep_chain_source(n: int) -> str:
    """n concepts, each specializing the next and the last `Reasoning`,
    and an instance `x` of the lowest, C00000."""
    lines = [f"concept C{i:05d} specializes {f'C{i + 1:05d}' if i + 1 < n else 'Reasoning'}"
             for i in range(n)]
    return "\n".join(lines + ["instance x : C00000"]) + "\n"


# --- user relations ----------------------------------------------------------


# A clean model whose domain model holds user relations: union signatures,
# temporal ones, domains that differ from their ranges, a particularization
# chain with facts (R-up over user relations), an atemporal particularization
# of a temporal one with its witness (S2), and conjunctions (plays-links).
# Its signature concepts are DomainConcepts from times 1-3.
USER_RELATIONS_SOURCE = """\
concept Engine specializes POB
concept FuelTank specializes POB
concept Pump specializes POB
concept Mechanic specializes APO
relation feeds signature (FuelTank | Pump, Engine)
relation supplies particularizes feeds signature (Pump, Engine)
relation primes particularizes supplies signature (Pump, Engine)
relation drains signature (Engine, FuelTank) temporal
relation tends signature (Mechanic, Engine | Pump) temporal
relation services particularizes tends signature (Mechanic, Engine)
relation spins signature (Engine)
concept Diagnosis specializes Reasoning
role Evidence = data of Diagnosis
role Finding = result of Diagnosis
concept FaultyEngine = Engine and Finding
concept PumpEvidence = Pump and Evidence
annotate Engine rigidity rigid
annotate Pump identity carries
label DomainConcept Engine at 1
label DomainConcept FuelTank at 1
label DomainConcept Pump at 2
label DomainConcept Mechanic at 3
label DomainConcept FaultyEngine at 3
label Task Diagnosis at 1
instance e1 : Engine
instance p1 : Pump
instance t1 : FuelTank
instance bob : Mechanic
instance d1 : Diagnosis
fact primes(p1, e1)
fact feeds(t1, e1)
fact drains(e1, t1, 1)
fact tends(bob, e1, 2)
fact services(bob, e1)
fact spins(e1)
fact isDataOf(p1, d1)
fact isResultOf(e1, d1)
fact PRE(d1, 0)
fact PC(e1, d1, 0)
fact PC(p1, d1, 0)
fact PC(t1, d1, 0)
fact PC(bob, d1, 0)
"""


def particularization_source(seed: int) -> str:
    """Random forest of binary relations particularizing one another.

    Roots are kernel relations or user relations; each step is
    temporal->temporal, temporal->atemporal or atemporal->temporal (which
    R-up does not cross) at random, chains branch, and signatures vary so
    that some facts fall outside their own or an ancestor's.  Facts on a
    few shared argument pairs, at several times, make several facts map
    to one ancestor fact.
    """
    rng = random.Random(f"particularization-{seed}")
    lines = ["concept Ponder specializes Reasoning"]
    temporal = {"PC": True, "isAffectedBy": False, "isDataOf": False, "isAgentOf": False}
    relations = list(temporal)
    for i in range(rng.randint(0, 2)):
        name = f"U{i}"
        temporal[name] = rng.random() < 0.5
        relations.append(name)
        lines.append(f"relation {name} signature (ED | PD, PD)"
                     + (" temporal" if temporal[name] else ""))
    unions = ["ED", "PD", "Content", "Model | Ponder", "ED | PD", "AC", "APO | Content"]
    for i in range(rng.randint(2, 10)):
        name, parent = f"P{i}", rng.choice(relations)
        temporal[name] = rng.random() < 0.5
        signature = ", ".join(rng.choice(unions) for _ in range(2))
        lines.append(f"relation {name} particularizes {parent} signature ({signature})"
                     + (" temporal" if temporal[name] else ""))
        relations.append(name)
    instances = [f"x{i}" for i in range(rng.randint(2, 7))]
    kinds = ["Model", "Ponder", "APO", "Document", "EV"]
    lines += [f"instance {x} : {rng.choice(kinds)}" for x in instances]
    pairs = [tuple(rng.sample(instances, 2)) for _ in range(rng.randint(1, 3))]
    facts = set()
    for _ in range(rng.randint(1, 14)):
        rel = rng.choice(relations[4:] or relations)
        x, y = rng.choice(pairs) if rng.random() < 0.7 else rng.sample(instances, 2)
        facts.add(f"fact {rel}({x}, {y}" + (f", {rng.randint(0, 2)})" if temporal[rel] else ")"))
    return "\n".join(lines + sorted(facts)) + "\n"


# --- rule D1 -----------------------------------------------------------------


def d1_source(seed: int) -> str:
    """Scenes around D1, one action each: its sole agent is its only
    agentive participant (D1 must not fire), a second agent, another
    agentive participant, one through a subconcept of APO or ASO, and
    facts of user relations under PC and under isAgentOf.  Actions are
    sometimes not AC, or already Interactions, and agents not agentive."""
    rng = random.Random(f"d1-{seed}")
    lines = ["concept Robot specializes APO", "concept Bot specializes ASO",
             "concept Deed specializes AC",
             "relation joins particularizes PC signature (ED, PD) temporal",
             "relation leads particularizes isAgentOf signature (APO | ASO, AC)"]
    actions = ["AC", "AC", "Deed", "Reasoning", "Communication", "EV"]
    for i in range(rng.randint(1, 6)):
        scene = rng.choice(["sole agent", "second agent", "other participant",
                            "subconcept", "user relations"])
        a, y, z, m = f"a{i}", f"y{i}", f"z{i}", f"m{i}"
        user = scene == "user relations"
        agent_of = "leads" if user and rng.random() < 0.7 else "isAgentOf"
        pc = "joins" if user and rng.random() < 0.7 else "PC"
        agent = rng.choice(["APO", "ASO", "Robot"] + ["Model"] * (scene != "sole agent"))
        other = rng.choice(["Robot", "Bot"] if scene == "subconcept" else ["APO", "ASO"])
        lines += [f"instance {a} : {rng.choice(actions)}", f"instance {y} : {agent}",
                  f"instance {z} : {other}", f"instance {m} : Model",
                  f"fact {agent_of}({y}, {a})", f"fact PC({m}, {a}, {rng.randint(0, 2)})"]
        if scene == "sole agent":
            lines.append(f"fact {pc}({y}, {a}, {rng.randint(0, 2)})")
        elif scene == "second agent":
            lines += [f"fact isAgentOf({z}, {a})", f"fact {pc}({rng.choice([y, z])}, {a}, 1)"]
        else:
            lines.append(f"fact {pc}({z}, {a}, {rng.randint(0, 2)})")
            if rng.random() < 0.3:
                lines.append(f"fact {agent_of}({z}, {a})")
    return "\n".join(lines) + "\n"


# --- chained D5 and D6 -------------------------------------------------------


# A D6 conjunction that enables a later one in the same trigger: `z` sorts
# after `x`, so `x : Model` is processed before D5 gives `x : B`, and then
# that one trigger derives both `x : C1` and `x : C2`.
D6_CHAIN_SOURCE = """\
concept Diagnosis specializes Reasoning
role B = data of Diagnosis
concept C1 = Model and B
concept C2 = C1 and B
instance z : Diagnosis
instance x : Model
fact isDataOf(x, z)
"""

# A D5 role over a role, on an instance that is data of itself: R-up derives
# `isDataOf(x, x)` only after `x : Diagnosis` is processed, so that one
# ground derives `x : R1` and then `x : R2`.
D5_CHAIN_SOURCE = """\
concept Diagnosis specializes Reasoning
role R1 = data of Diagnosis
role R2 = data of R1
relation feeds particularizes isDataOf signature (Content, AC)
instance x : Diagnosis
fact feeds(x, x)
"""


# --- columns -----------------------------------------------------------------


# Findings on lines indented by spaces, by tabs, and by whitespace that only
# the token parser takes (form feed, U+0085, U+3000), and one on line 1
# after a BOM, which `okc` drops as it reads a file.  Load errors stop
# validation, so the load findings (E1, E3, E5, E6) and the validator's
# (W2, S1, A7, with Ad35 beside them) have a file each.
COLUMNS_LOAD_SOURCE = (
    "\ufeff  concept Widget specializes Nope   # E3, after a BOM\n"
    "concept Gadget specializes PT\n"
    "\tconcept Gadget specializes ED\n"
    "label DomainConcept Gadget at 1\n"
    "\x85label DomainConcept Gadget at 1\n"
    "annotate Gadget rigidity rigid\n"
    "\u3000annotate Gadget rigidity anti-rigid  # conflicting\n"
    "\x0cinstance g : Gizmo\n"
    " \t fact PC(g, Nowhere, 0)\n"
    "    concept Gizmo2 = Nope2 and Nope3\n"
)
COLUMNS_CHECKS_SOURCE = (
    "\ufeff\tconcept Both specializes ED, PD  # W2, after a BOM\n"
    "concept Solve specializes Reasoning\n"
    "relation nudges particularizes PC signature (EV, POB) temporal\n"
    "instance ev : EV\n"
    "   instance both : EV, POB\n"
    "\x0cfact PC(ev, both, 0)\n"
    "\x85fact nudges(ev, both, 1)  # S1 on the PC fact it derives\n"
    "\u3000label Task Both at 1\n"
    "label Task Solve at 1\n"
)


# --- the token parser and the finding paths ----------------------------------


# USER_RELATIONS_SOURCE plus the forms it lacks (a disjointness, a concept
# without parents, an instance of two concepts), with every space an
# ideographic space (U+3000).  The accept path refuses every line, so the
# token parser checks each and hands it back with single spaces.
TOKEN_PARSER_SOURCE = (
    USER_RELATIONS_SOURCE
    + "disjoint Mechanic Pump\nconcept Gauge\ninstance g : Gauge, POB\nfact PC(g, d1, 0)\n"
).replace(" ", "\u3000")

_TOO_LARGE = "9" * 4301  # one digit past the longest time point

# One P1 a line: each statement form, with each message its parser gives.
P1_SOURCE = "".join(line + "\n" for line in (
    "bogus X",
    "concept", "concept X specializes", "concept X specializes A,", "concept X = 1 and B",
    "concept X = A or B", "concept X = A and", "concept X extends A",
    "role", "role R data of X", "role R = input of X", "role R = data for X",
    "role R = data of", "role R = data of X Y",
    "relation", "relation r particularizes", "relation r (A)", "relation r signature A",
    "relation r signature ()", "relation r signature (A B)", "relation r signature (A |)",
    "relation r signature (A) eternal",
    "disjoint A", "disjoint A B C",
    "label Hat X at 1", "label Task", "label Task X 1", "label Task X at",
    f"label Task X at {_TOO_LARGE}", "label Task X at 1 2",
    "annotate", "annotate X size big", "annotate X rigidity soft",
    "annotate X rigidity rigid now",
    "instance", "instance x X", "instance x :", "instance x : A,", "instance x : A B",
    "fact", "fact r x", "fact r()", "fact r(x, =)", "fact r(x y)", "fact r(x, 1, 2)",
    f"fact r(x, {_TOO_LARGE})", "fact r(x) y",
))

# Load findings the other inputs do not give: E1 and E2 across kinds; E3 on
# an undeclared parent relation, an annotated undeclared concept, and the
# facts of a concept and of an undeclared relation; E4 on a fact with a time
# but no argument and on a concept disjoint with itself; and E7 on a cycle
# and on a relation leading into it.
LOAD_FINDINGS_SOURCE = """\
concept Gadget specializes POB
instance Gadget : PT
relation Gizmo signature (PT)
concept Gizmo specializes PT
instance Reasoning : PT
relation Data signature (PT)
relation derived particularizes missing signature (PT)
annotate Ghost rigidity rigid
instance g : Gadget
fact Gadget(g)
fact Nowhere(g)
fact PRE(0)
disjoint Gadget Gadget
relation loopA particularizes loopB signature (PT)
relation loopB particularizes loopA signature (PT)
relation intoLoop particularizes loopB signature (PT)
"""


# A role, a conjunction and an instance each declared again, once with the
# same content (kept once, by set semantics; the instance lists its concepts
# in another order) and once with other content (E1 on the later line).
REDECLARATION_SOURCE = """\
concept Diagnosis specializes Reasoning
role Evidence = data of Diagnosis
role Evidence = data of Diagnosis
role Finding = result of Diagnosis
role Finding = data of Diagnosis
concept Sample = Model and Evidence
concept Sample = Model and Evidence
concept Probe = Model and Evidence
concept Probe = Model and Finding
instance d : Diagnosis, Reasoning
instance d : Reasoning, Diagnosis
instance m : Model
instance m : Content
"""


def cycle_source(n: int) -> str:
    """n concepts in one subsumption cycle, and an instance `x` of the first."""
    lines = [f"concept K{i:05d} specializes K{(i + 1) % n:05d}" for i in range(n)]
    return "\n".join(lines + ["instance x : K00000"]) + "\n"


# L4 on each role flavor that can fail it: a material role with all three
# failures, an Output label on a data role and an Input label on a result
# role.  Each concept passes L3.
L4_SOURCE = """\
concept Diagnosis specializes Reasoning
role Evidence = data of Diagnosis
role Finding = result of Diagnosis
annotate Evidence rigidity anti-rigid
annotate Evidence dependence dependent
annotate Finding rigidity anti-rigid
annotate Finding dependence dependent
label MaterialKnowledgeRole Evidence at 1
label Output Evidence at 2
label Input Finding at 2
"""


# --- lines for the parser ----------------------------------------------------


# Lines where a pattern could plausibly read more or less than the tokens do.
ACCEPT_EDGE_LINES = [
    "concept specializes",
    "concept A specializes specializes",
    "concept A-B",
    "concept A#note",
    "concept\tA  specializes B ,C\t# note",
    "  concept A=B and C",
    "concept A = B andC",
    "concept A\u00a0specializes B",
    "role R=data of C",
    "role R = database of C",
    "relation particularizes signature (A)",
    "relation particularizes particularizes signature (A)",
    "relation R particularizes signature signature (A)",
    "relation R signature(B|A, C|A|B)temporal",
    "relation R signature (A) temporalX",
    "relation R signature (A,) temporal",
    "disjoint A B C",
    "label Task X at 007",
    "label Tasks X at 1",
    "label Task X at 1x",
    "label Task X at \u0663",
    "annotate X rigidity anti-rigid#c",
    "annotate X identity rigid",
    "annotate X-Y rigidity rigid",
    "instance i:A,B",
    "instance i : A, B,",
    "fact R(3)",
    "fact R(a,b,3)",
    "fact R(a, 3, b)",
    "fact R(a, #b)",
    "fact R (a) # note",
    "fact R(a_1, b2)",
    "fact R(a, _b)",
    "fact R(\u00e9)",
]
MUTATION_ALPHABET = " \t(),:=|#-_x7\u00e9\u0663"


def corpus_lines() -> list[str]:
    return [line for path in sorted(CORPUS.glob("**/*.oks"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def mutate(rng: random.Random, line: str, alphabet: str = MUTATION_ALPHABET) -> str:
    """`line` after one to three seeded inserts, deletes or replacements."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(line) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert":
            line = line[:pos] + rng.choice(alphabet) + line[pos:]
        elif pos < len(line):
            replacement = rng.choice(alphabet) if op == "replace" else ""
            line = line[:pos] + replacement + line[pos + 1:]
    return line


def parser_lines() -> list[str]:
    """ACCEPT_EDGE_LINES, the corpus lines and each line of every `*_SOURCE`
    model above, followed by 40 seeded mutations of each."""
    lines = ACCEPT_EDGE_LINES + corpus_lines() + [
        line for name, text in sorted(globals().items()) if name.endswith("_SOURCE")
        for line in text.split("\n")]
    rng = random.Random(20261022)
    return lines + [mutate(rng, line) for line in lines for _ in range(40)]
