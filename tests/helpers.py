"""Shared test helpers: pipeline shortcuts, independent oracles and
seeded random model generators.

The oracles deliberately re-implement the semantics with the dumbest
possible algorithms (full rescans, exhaustive enumeration) so they stay
independent of the production code paths they check.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Optional

from digest_inputs import (  # noqa: F401  (re-exported)
    COLUMNS_CHECKS_SOURCE,
    COLUMNS_LOAD_SOURCE,
    D5_CHAIN_SOURCE,
    D6_CHAIN_SOURCE,
    L4_SOURCE,
    LOAD_FINDINGS_SOURCE,
    P1_SOURCE,
    REDECLARATION_SOURCE,
    TOKEN_PARSER_SOURCE,
    USER_RELATIONS_SOURCE,
    cycle_source,
    d1_source,
    deep_chain_source,
    particularization_source,
    role_fan_in_source,
    shared_operand_source,
    wide_disjointness_source,
)
from okc import kernel
from okc.bundle import RoleRecord
from okc.frontend import Token, _tokenize_line, parse, render
from okc.kernel import merge_with_kernel
from okc.checks import REGISTRY, validate
from okc.model import (
    LABEL_FAMILY,
    PRIMITIVES,
    ConceptDecl,
    Conjunction,
    Fact,
    InstanceDecl,
    MetaLabel,
    AnnotationDecl,
    DisjointDecl,
    RelationDecl,
    RoleDefinition,
    Severity,
    SourceSpan,
    SourceText,
    _check_particularization_cycles,
    _error,
    direct_supers,
)
from okc.reasoner import Ground, Member

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "corpus"
# The documents `okc compile` writes into its output directory.
BUNDLE_FILES = ("domain.json", "inference.json", "task.json")


def load_source(text: str, filename: str = "<test>"):
    """parse + merge; returns (ontology_or_None, diagnostics)."""
    decls, parse_diags = parse(text, filename)
    if parse_diags:
        return None, parse_diags
    return merge_with_kernel(decls, SourceText(filename, text))


def check_source(text: str, filename: str = "<test>"):
    """Full pipeline diagnostics: parse, load, validate."""
    onto, diags = load_source(text, filename)
    if onto is None:
        return list(diags)
    return list(diags) + validate(onto)


def error_codes(diags) -> list[str]:
    return sorted(d.code for d in diags if d.severity is Severity.ERROR)


def all_codes(diags) -> set[str]:
    return {d.code for d in diags}


_KERNEL_RECORDS = frozenset(kernel.KERNEL_DECLARATIONS)


def ontology_content(onto) -> tuple:
    """What an Ontology declares, without line numbers: loads of the same
    declarations, in any order and from any file names, have equal contents.
    Each declaration is marked by whether it is one of the kernel's."""
    return (
        {n: (c.content(), c in _KERNEL_RECORDS) for n, c in onto.concepts.items()},
        {n: (r.content(), r in _KERNEL_RECORDS) for n, r in onto.relations.items()},
        {n: (i.content(), i in _KERNEL_RECORDS) for n, i in onto.instances.items()},
        {(c, a): (d.value, d in _KERNEL_RECORDS) for c, per in onto.annotations.items()
         for a, d in per.items()},
        frozenset(onto.labels),
        frozenset(onto.facts),
        frozenset(onto.disjoints),
    )


# --- the corpus, read from its layout --------------------------------------
#
# `corpus/<stem>.oks` has no findings, `corpus/negative/<code>_<what>.oks`
# emits exactly `<code>`, and `corpus/golden/<stem>/` is the golden bundle of
# `corpus/<stem>.oks`.


def clean_corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.oks"))


def negative_corpus_files() -> list[Path]:
    return sorted((CORPUS / "negative").glob("*.oks"))


def negative_code(path: Path) -> Optional[str]:
    """The registry code the stem of a negative case starts with, before its
    first `_`, matched case-insensitively (`l2b_...` is L2b); None if none is."""
    prefix, underscore, _ = path.stem.partition("_")
    return {code.lower(): code for code in REGISTRY}.get(prefix) if underscore else None


def golden_dirs(corpus: Path = CORPUS) -> list[Path]:
    """The golden bundle directories, `corpus/golden/explain/` aside."""
    return sorted(p for p in (corpus / "golden").iterdir()
                  if p.is_dir() and p.name != "explain")


def corpus_source(name: str) -> str:
    """The text of `corpus/<name>.oks`, or else of `corpus/negative/<name>.oks`."""
    path = CORPUS / f"{name}.oks"
    if not path.is_file():
        path = CORPUS / "negative" / f"{name}.oks"
    return path.read_text(encoding="utf-8")


def load_corpus_file(name: str):
    path = CORPUS / name
    onto, diags = load_source(path.read_text(encoding="utf-8"), str(path))
    assert onto is not None, [d.render() for d in diags]
    return onto


# --- reference oracle ----------------------------------------------------------


def scan_references(onto, diags: list) -> None:
    """The reference checks of `load`, one declaration at a time: each
    name is looked up where it is used, and each fact checked on its own.
    It takes the place of `okc.model._check_references` to give the
    findings a load must match."""
    at = onto.source.span

    def need_concept(name: str, line: int, context: str) -> None:
        if name not in onto.concepts:
            kind = "relation" if name in onto.relations else (
                "instance" if name in onto.instances else None)
            detail = f"names a {kind}, not a concept" if kind else "is not declared"
            diags.append(_error("E3", f"{context}: '{name}' {detail}", at(line), name))

    for c in onto.concepts.values():
        if c.definition is not None and c.parents:
            diags.append(_error(
                "E4", f"concept '{c.name}' has both asserted parents and a definition",
                at(c.line), c.name))
        for p in c.parents:
            need_concept(p, c.line, f"parent of '{c.name}'")
        if isinstance(c.definition, RoleDefinition):
            need_concept(c.definition.reasoning_concept, c.line,
                         f"reasoning concept of role '{c.name}'")
        elif isinstance(c.definition, Conjunction):
            need_concept(c.definition.type_concept, c.line, f"conjunct of '{c.name}'")
            need_concept(c.definition.formal_role, c.line, f"conjunct of '{c.name}'")

    for r in onto.relations.values():
        for position in r.signature:
            for member in position:
                need_concept(member, r.line, f"signature of relation '{r.name}'")
        if not r.signature:
            diags.append(_error(
                "E4", f"relation '{r.name}' has an empty signature", at(r.line), r.name))
        if r.particularizes is not None:
            parent = onto.relations.get(r.particularizes)
            if parent is None:
                diags.append(_error(
                    "E3", f"relation '{r.name}' particularizes undeclared "
                    f"relation '{r.particularizes}'", at(r.line), r.name, r.particularizes))
            elif parent.arity != r.arity:
                diags.append(_error(
                    "E7", f"relation '{r.name}' (arity {r.arity}) particularizes "
                    f"'{parent.name}' (arity {parent.arity})", at(r.line), r.name, parent.name))
    _check_particularization_cycles(onto, diags)

    for inst in onto.instances.values():
        for cname in inst.concepts:
            need_concept(cname, inst.line, f"concept of instance '{inst.name}'")

    for lb in onto.labels.values():
        if lb.primitive not in PRIMITIVES:
            diags.append(_error(
                "E4", f"unknown modeling primitive '{lb.primitive}'", at(lb.line), lb.concept))
        need_concept(lb.concept, lb.line, f"label {lb.primitive}")
        if lb.time < 0:
            diags.append(_error("E4", f"negative label time {lb.time}", at(lb.line), lb.concept))

    for per_concept in onto.annotations.values():
        for ann in per_concept.values():
            need_concept(ann.concept, ann.line, f"annotate {ann.axis}")

    for dis in onto.disjoints.values():
        need_concept(dis.first, dis.line, "disjointness")
        need_concept(dis.second, dis.line, "disjointness")
        if dis.first == dis.second:
            diags.append(_error(
                "E4", f"'{dis.first}' declared disjoint with itself", at(dis.line), dis.first))

    for f in onto.facts.values():
        rel = onto.relations.get(f.relation)
        if rel is None:
            detail = ("names a concept, not a relation" if f.relation in onto.concepts
                      else "is not declared")
            diags.append(_error(
                "E3", f"fact relation '{f.relation}' {detail}", at(f.line), f.relation))
            continue
        if len(f.args) != rel.arity:
            diags.append(_error(
                "E4", f"fact {f.relation} expects {rel.arity} argument(s), "
                f"got {len(f.args)}", at(f.line), f.relation))
        if rel.temporal and f.time is None:
            diags.append(_error(
                "E4", f"fact {f.relation} requires a trailing time point", at(f.line), f.relation))
        if not rel.temporal and f.time is not None:
            diags.append(_error(
                "E4", f"fact {f.relation} takes no time point", at(f.line), f.relation))
        if f.time is not None and f.time < 0:
            diags.append(_error("E4", f"negative time point {f.time}", at(f.line), f.relation))
        for arg in f.args:
            if arg not in onto.instances:
                kind = "concept" if arg in onto.concepts else (
                    "relation" if arg in onto.relations else None)
                detail = f"names a {kind}, not an instance" if kind else "is not declared"
                diags.append(_error("E3", f"fact argument '{arg}' {detail}", at(f.line), arg))


def unparsable_faults_model(seed: int):
    """Declaration records with reference errors that no `.oks` text
    parses to, beside well-formed ones: negative label and fact times,
    unknown primitives, a relation or a concept as a fact argument, and a
    concept as a fact's relation.  Returns the declarations and each
    plant's (code, message) pair, which load must report."""
    rng = random.Random(f"unparsable-{seed}")
    decls = [ConceptDecl("Gauge", ("POB",)), InstanceDecl("g", ("Gauge",)),
             InstanceDecl("run", ("Reasoning",)),
             RelationDecl("reads", (("ED",), ("PD",)), temporal=True)]
    plants = {
        "negative label time": (MetaLabel("Task", "Gauge", -1 - seed % 3),
                                ("E4", f"negative label time {-1 - seed % 3}")),
        "unknown primitive": (MetaLabel("Gadget", "Gauge", 1),
                              ("E4", "unknown modeling primitive 'Gadget'")),
        "negative fact time": (Fact("reads", ("g", "run"), -2),
                               ("E4", "negative time point -2")),
        "relation as argument": (Fact("reads", ("reads", "run"), 0),
                                 ("E3", "fact argument 'reads' names a relation, "
                                        "not an instance")),
        "concept as argument": (Fact("PC", ("g", "Gauge"), 1),
                                ("E3", "fact argument 'Gauge' names a concept, "
                                       "not an instance")),
        "concept as relation": (Fact("Gauge", ("g",), None),
                                ("E3", "fact relation 'Gauge' names a concept, "
                                       "not a relation")),
    }
    chosen = rng.sample(sorted(plants), k=rng.randint(1, len(plants)))
    decls += [plants[name][0] for name in chosen]
    decls += [Fact("reads", ("g", "run"), rng.randint(0, 3)), MetaLabel("Task", "Gauge", 2)]
    rng.shuffle(decls)
    return decls, [plants[name][1] for name in chosen]


# --- closure oracle ----------------------------------------------------------


def reachability_oracle(nodes: list[str], edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """All (descendant, ancestor) pairs by boolean Floyd-Warshall,
    including the reflexive pairs.  `up[i]` is row i of the matrix: when i
    reaches k, it reaches all that k reaches."""
    up = {n: {n} for n in nodes}
    for descendant, ancestor in edges:
        up[descendant].add(ancestor)
    for k in nodes:
        for row in up.values():
            if k in row:
                row |= up[k]
    return {(i, j) for i, row in up.items() for j in row}


def random_taxonomy(seed: int, max_nodes: int = 12) -> list[ConceptDecl]:
    """Random DAG of user concepts rooted in a few kernel hooks."""
    rng = random.Random(seed)
    hooks = ["PT", "ED", "Reasoning", "Content", "STV", "Model"]
    decls: list[ConceptDecl] = []
    names: list[str] = []
    for i in range(rng.randint(1, max_nodes)):
        name = f"N{i}"
        pool = hooks + names
        parents = tuple(sorted(set(rng.sample(pool, k=min(len(pool), rng.randint(1, 3))))))
        decls.append(ConceptDecl(name, parents))
        names.append(name)
    return decls


# --- naive saturation oracle --------------------------------------------------


def naive_saturate(onto, rng: random.Random):
    """Apply-all-rules-until-no-change with randomized rule order.

    Returns (memberships, grounds) as plain tuple sets.
    """
    members = {(i.name, c) for i in onto.instances.values() for c in i.concepts}
    grounds = {(f.relation, f.args, f.time) for f in onto.facts.values()}

    supers: dict[str, list[str]] = {}
    for name, c in onto.concepts.items():
        ups = list(c.parents)
        if isinstance(c.definition, RoleDefinition):
            ups.append("Data" if c.definition.mode == "data" else "Result")
        elif isinstance(c.definition, Conjunction):
            ups.extend([c.definition.type_concept, c.definition.formal_role])
        supers[name] = [u for u in ups if u in onto.concepts]

    roles = [(c.name, c.definition.mode, c.definition.reasoning_concept)
             for c in onto.concepts.values() if isinstance(c.definition, RoleDefinition)]
    conjs = [(c.name, c.definition.type_concept, c.definition.formal_role)
             for c in onto.concepts.values() if isinstance(c.definition, Conjunction)]

    def rule_m_up():
        return {(i, p) for (i, c) in members for p in supers.get(c, ())}, set()

    def rule_r_up():
        out = set()
        for (rel, args, time) in grounds:
            decl = onto.relations.get(rel)
            if decl is None or decl.particularizes not in onto.relations:
                continue
            parent = onto.relations[decl.particularizes]
            if not decl.temporal and parent.temporal:
                continue
            out.add((parent.name, args, time if parent.temporal else None))
        return set(), out

    def rule_d1():
        out = set()
        for (rel, args, _t) in grounds:
            if rel != "isAgentOf":
                continue
            y, action = args
            if (action, "AC") not in members:
                continue
            for (rel2, args2, _t2) in grounds:
                if rel2 != "PC" or args2[1] != action:
                    continue
                z = args2[0]
                if z != y and ((z, "APO") in members or (z, "ASO") in members):
                    out.add((action, "Interaction"))
        return out, set()

    def rule_d2():
        out = set()
        for (rel, args, _t) in grounds:
            if rel != "hasForSubject":
                continue
            p, c = args
            if (p, "Proposition") in members and (c, "IdaConcept") in members:
                out.add((c, "Subject"))
        return out, set()

    def rule_d3():
        return ({(args[0], "Patient") for (rel, args, _t) in grounds
                 if rel == "isAffectedBy"}, set())

    def rule_d4():
        out = {(args[0], "Data") for (rel, args, _t) in grounds if rel == "isDataOf"}
        out |= {(args[0], "Result") for (rel, args, _t) in grounds if rel == "isResultOf"}
        return out, set()

    def rule_d5():
        out = set()
        for (name, mode, reasoning) in roles:
            feed = "isDataOf" if mode == "data" else "isResultOf"
            for (rel, args, _t) in grounds:
                if rel == feed and (args[1], reasoning) in members:
                    out.add((args[0], name))
        return out, set()

    def rule_d6():
        out = set()
        for (name, type_c, role_c) in conjs:
            for (i, c) in list(members):
                if c == type_c and (i, role_c) in members:
                    out.add((i, name))
        return out, set()

    rules = [rule_m_up, rule_r_up, rule_d1, rule_d2, rule_d3, rule_d4, rule_d5, rule_d6]
    changed = True
    while changed:
        changed = False
        rng.shuffle(rules)
        for rule in rules:
            new_m, new_g = rule()
            if not new_m <= members or not new_g <= grounds:
                changed = True
            members |= new_m
            grounds |= new_g
    return members, grounds


def members_of(onto, facts) -> set[Member]:
    """Every membership of the fact base: `concepts_of` over the declared instances."""
    return {Member(i, c) for i in onto.instances for c in facts.concepts_of(i)}


def grounds_of(facts) -> set[Ground]:
    """Every ground fact of the fact base, asserted or derived: each
    asserted fact and what R-up derives from it, walked up its chain."""
    return {up for g in facts.ontology.facts for up in facts._r_up_chain(g)}


def engine_sets(onto, facts):
    memberships = {(m.instance, m.concept) for m in members_of(onto, facts)}
    grounds = {(g.relation, g.args, g.time) for g in grounds_of(facts)}
    return memberships, grounds


def random_saturation_model(seed: int):
    """Small random model exercising every saturation rule family."""
    rng = random.Random(seed)
    decls = []
    reasonings = [f"Reason{i}" for i in range(rng.randint(1, 3))]
    for r in reasonings:
        decls.append(ConceptDecl(r, ("Reasoning",)))
    types = ["Model", "Hypothesis", "Assertion"]
    roles = []
    for i in range(rng.randint(0, 3)):
        name = f"Role{i}"
        mode = rng.choice(["data", "result"])
        target = rng.choice(reasonings + ["Reasoning", "AC"])
        decls.append(ConceptDecl(name, (), RoleDefinition(mode, target)))
        roles.append(name)
    for i in range(rng.randint(0, 2)):
        if roles:
            decls.append(ConceptDecl(
                f"Conj{i}", (), Conjunction(rng.choice(types), rng.choice(roles))))
    user_rels = []
    if rng.random() < 0.5:
        decls.append(RelationDecl("feeds", (("Content",), ("AC",)),
                                  particularizes="isDataOf"))
        user_rels.append("feeds")
    if rng.random() < 0.3:
        decls.append(RelationDecl("yields", (("Content",), ("AC",)),
                                  particularizes="isResultOf"))
        user_rels.append("yields")
    temporal_rels = []
    if rng.random() < 0.4:
        # temporal particularization: the parent fact keeps the time point
        decls.append(RelationDecl("joins", (("ED",), ("PD",)), temporal=True,
                                  particularizes="PC"))
        temporal_rels.append("joins")

    instances = [f"x{i}" for i in range(rng.randint(1, 8))]
    inst_concepts = types + reasonings + ["APO", "ASO", "IdaConcept", "Document", "EV"]
    for name in instances:
        decls.append(InstanceDecl(
            name, tuple(rng.sample(inst_concepts, k=rng.randint(1, 2)))))

    binary_atemporal = ["isAgentOf", "isAffectedBy", "isDataOf", "isResultOf",
                        "hasForSubject"] + user_rels
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.2:
            decls.append(Fact("PRE", (rng.choice(instances),), rng.randint(0, 3)))
        elif kind < 0.45:
            decls.append(Fact("PC", (rng.choice(instances), rng.choice(instances)),
                              rng.randint(0, 3)))
        elif kind < 0.55 and temporal_rels:
            decls.append(Fact(rng.choice(temporal_rels),
                              (rng.choice(instances), rng.choice(instances)),
                              rng.randint(0, 3)))
        else:
            decls.append(Fact(rng.choice(binary_atemporal),
                              (rng.choice(instances), rng.choice(instances)), None))
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def random_shared_model(seed: int):
    """Larger random model whose facts share arguments heavily.

    40-80 instances and 60-150 facts.  Three arguments in four come from
    five hub instances, so one (relation, position, value) holds many
    facts and D1, D2 and D5 each see several candidates.
    """
    rng = random.Random(f"shared-{seed}")
    reasonings = ["Reason0", "Reason1"]
    decls = [ConceptDecl(r, ("Reasoning",)) for r in reasonings]
    decls.append(ConceptDecl("Negotiating", ("AC",)))
    roles = []
    for i in range(rng.randint(1, 4)):
        roles.append(f"Role{i}")
        decls.append(ConceptDecl(roles[-1], (), RoleDefinition(
            rng.choice(["data", "result"]), rng.choice(reasonings + ["Reasoning", "AC"]))))
    types = ["Model", "Hypothesis", "Assertion"]
    for i in range(rng.randint(0, 2)):
        decls.append(ConceptDecl(f"Conj{i}", (), Conjunction(rng.choice(types),
                                                             rng.choice(roles))))
    decls.append(RelationDecl("feeds", (("Content",), ("AC",)), particularizes="isDataOf"))
    decls.append(RelationDecl("joins", (("ED",), ("PD",)), temporal=True,
                              particularizes="PC"))

    instances = [f"x{i:02d}" for i in range(rng.randint(40, 80))]
    hubs = rng.sample(instances, k=5)
    inst_concepts = types + reasonings + ["Negotiating", "APO", "ASO", "IdaConcept",
                                          "Document"]
    for name in instances:
        decls.append(InstanceDecl(
            name, tuple(rng.sample(inst_concepts, k=rng.randint(1, 2)))))

    def pick() -> str:
        return rng.choice(hubs) if rng.random() < 0.75 else rng.choice(instances)

    relations = ["PC", "PC", "PC", "joins", "PRE", "isAgentOf", "isAgentOf",
                 "hasForSubject", "hasForSubject", "isDataOf", "isResultOf",
                 "isAffectedBy", "feeds"]
    facts: dict[tuple, None] = {}
    wanted = rng.randint(60, 150)
    while len(facts) < wanted:
        rel = rng.choice(relations)
        if rel == "PRE":
            facts[(rel, (pick(),), rng.randint(0, 3))] = None
        elif rel in ("PC", "joins"):
            facts[(rel, (pick(), pick()), rng.randint(0, 3))] = None
        else:
            facts[(rel, (pick(), pick()), None)] = None
    decls.extend(Fact(*key) for key in facts)
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def role_web_model(seed: int):
    """Random model woven from 20-60 roles and conjunctions.

    Roles cover reasoning concepts and, now and then, earlier roles and
    conjunctions.  Conjunctions pair a content type, role or conjunction
    with a role or conjunction, each declared before them, so they share
    operands and nest.  15-30 instances hold types, reasoning concepts
    and roles, and up to 90 facts feed data and result participants to four
    hub instances, so one instance gains many roles and conjunctions.
    """
    rng = random.Random(f"web-{seed}")
    reasonings = [f"Reason{i}" for i in range(rng.randint(2, 5))]
    decls = [ConceptDecl(r, (rng.choice(["Reasoning"] + reasonings[:i]),))
             for i, r in enumerate(reasonings)]
    types = ["Model", "Hypothesis", "Assertion", "Proposition"]
    roles: list[str] = []
    conjunctions: list[str] = []
    for _ in range(rng.randint(20, 60)):
        if len(roles) < 2 or rng.random() < 0.4:
            roles.append(f"Role{len(roles)}")
            covered = rng.choice(reasonings + ["Reasoning"] if len(roles) < 2 or rng.random() < 0.8
                                 else roles[:-1] + conjunctions)
            decls.append(ConceptDecl(roles[-1], (), RoleDefinition(
                rng.choice(["data", "result"]), covered)))
        else:
            conjunctions.append(f"Conj{len(conjunctions)}")
            decls.append(ConceptDecl(conjunctions[-1], (), Conjunction(
                rng.choice(types + roles + conjunctions[:-1]),
                rng.choice(roles + conjunctions[:-1]))))
    decls.append(RelationDecl("feeds", (("Content",), ("AC",)), particularizes="isDataOf"))
    decls.append(RelationDecl("yields", (("Content",), ("AC",)), particularizes="isResultOf"))

    instances = [f"x{i:02d}" for i in range(rng.randint(15, 30))]
    hubs = rng.sample(instances, k=4)
    pool = types + reasonings + roles + conjunctions
    for name in instances:
        decls.append(InstanceDecl(name, tuple(rng.sample(pool, k=rng.randint(1, 3)))))
    facts = {(rng.choice(["isDataOf", "isResultOf", "feeds", "yields"]),
              (rng.choice(instances), rng.choice(hubs)), None)
             for _ in range(rng.randint(30, 90))}
    decls.extend(Fact(*key) for key in sorted(facts))
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def bushy_taxonomy(seed: int, n: int) -> list:
    """n concepts in a six-ary tree under `Model`, each with a random
    kernel hook as a second parent half of the time, and an instance of
    every seventh concept.  Ancestor sets stay small, so the closure
    oracle is affordable at n in the thousands."""
    rng = random.Random(f"bushy-{seed}")
    hooks = ["PT", "ED", "Reasoning", "Content", "STV", "NPOB"]
    names = [f"T{i:05d}" for i in range(n)]
    decls = []
    for i, name in enumerate(names):
        parents = {names[(i - 1) // 6] if i else "Model"}
        if rng.random() < 0.5:
            parents.add(rng.choice(hooks))
        decls.append(ConceptDecl(name, tuple(sorted(parents))))
    decls += [InstanceDecl(f"x{i:05d}", (name,)) for i, name in enumerate(names) if i % 7 == 0]
    return decls


# --- random loadable models for round-trips ------------------------------------


def random_loadable_decls(seed: int) -> list:
    """Random declaration set covering every statement form; always loads."""
    rng = random.Random(seed)
    decls = []
    hooks = ["PT", "ED", "NPOB", "Reasoning", "Communication", "Model", "STV", "Content"]
    concepts: list[str] = []
    for i in range(rng.randint(1, 6)):
        name = f"C{i}"
        if rng.random() < 0.9:
            pool = hooks + concepts
            parents = tuple(sorted(set(rng.sample(pool, k=min(len(pool), rng.randint(1, 2))))))
        else:
            parents = ()
        decls.append(ConceptDecl(name, parents))
        concepts.append(name)

    roles: list[str] = []
    for i in range(rng.randint(0, 2)):
        name = f"R{i}"
        decls.append(ConceptDecl(name, (), RoleDefinition(
            rng.choice(["data", "result"]), rng.choice(concepts + ["Reasoning"]))))
        roles.append(name)
    conj_names: list[str] = []
    if roles and rng.random() < 0.7:
        decls.append(ConceptDecl("M0", (), Conjunction(
            rng.choice(["Model", "Hypothesis"]), rng.choice(roles))))
        conj_names.append("M0")

    relations: list[tuple[str, int, bool]] = []
    for i in range(rng.randint(0, 2)):
        arity = rng.choice([1, 2])
        signature = tuple(
            tuple(sorted(set(rng.sample(["ED", "PD", "Content", "AC"],
                                        k=rng.choice([1, 1, 2])))))
            for _ in range(arity))
        temporal = rng.random() < 0.5
        particularizes = None
        if arity == 2 and temporal and rng.random() < 0.4:
            particularizes = "PC"
        name = f"rel{i}"
        decls.append(RelationDecl(name, signature, temporal=temporal,
                                  particularizes=particularizes))
        relations.append((name, arity, temporal))

    annotatable = concepts + roles + conj_names
    for concept in rng.sample(annotatable, k=min(len(annotatable), rng.randint(0, 3))):
        axis, values = rng.choice([
            ("rigidity", ("rigid", "anti-rigid", "semi-rigid")),
            ("identity", ("carries", "none")),
            ("dependence", ("dependent", "independent")),
        ])
        decls.append(AnnotationDecl(concept, axis, rng.choice(values)))

    if len(concepts) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(concepts, k=2)
        decls.append(DisjointDecl(a, b))

    primitives = ["Task", "Inference", "TransferFunction", "DomainConcept",
                  "KnowledgeRole", "FormalKnowledgeRole", "Input", "Output"]
    seen_triples = set()
    for _ in range(rng.randint(0, 4)):
        triple = (rng.choice(primitives), rng.choice(annotatable), rng.randint(0, 4))
        if triple in seen_triples:
            continue
        seen_triples.add(triple)
        decls.append(MetaLabel(*triple))

    instances = [f"i{k}" for k in range(rng.randint(0, 4))]
    for name in instances:
        decls.append(InstanceDecl(
            name, tuple(sorted(set(rng.sample(annotatable + ["Model", "APO"],
                                              k=rng.randint(1, 2)))))))
    if instances:
        for _ in range(rng.randint(0, 4)):
            choice = rng.random()
            if choice < 0.3:
                decls.append(Fact("PC", (rng.choice(instances), rng.choice(instances)),
                                  rng.randint(0, 3)))
            elif choice < 0.5:
                decls.append(Fact("isDataOf",
                                  (rng.choice(instances), rng.choice(instances)), None))
            elif relations:
                name, arity, temporal = rng.choice(relations)
                args = tuple(rng.choice(instances) for _ in range(arity))
                decls.append(Fact(name, args, rng.randint(0, 3) if temporal else None))

    return decls


def random_loadable_model(seed: int):
    onto, diags = merge_with_kernel(random_loadable_decls(seed))
    assert onto is not None, [d.render() for d in diags]
    return onto


def round_trip(onto):
    text = render(onto)
    decls, parse_diags = parse(text, "<render>")
    assert not parse_diags, [d.render() for d in parse_diags]
    reloaded, load_diags = merge_with_kernel(decls, SourceText("<render>", text))
    assert reloaded is not None, [d.render() for d in load_diags]
    return reloaded


# --- temporal participation oracle ---------------------------------------------


def temporal_oracle(presence: set[int], participated: set[int], mode: str) -> bool:
    """Direct enumeration of the there-exists/for-all participation formula,
    with witnesses drawn from the declared presence record."""
    if not presence:
        return True  # vacuous
    for t in sorted(presence):
        if mode == "data":
            if all(tp in participated for tp in presence if tp <= t):
                return True
        else:
            if all(tp in participated for tp in presence if tp >= t):
                return True
    return False


def temporal_model(pre_times, pc_m1, pc_m2, data_facts):
    """Tiny model: perdurant d with presence record and PC facts for m1/m2."""
    decls = [
        ConceptDecl("Crunching", ("Reasoning",)),
        InstanceDecl("d", ("Crunching",)),
        InstanceDecl("m1", ("Model",)),
        InstanceDecl("m2", ("Model",)),
    ]
    for t in sorted(pre_times):
        decls.append(Fact("PRE", ("d",), t))
    for t in sorted(pc_m1):
        decls.append(Fact("PC", ("m1", "d"), t))
    for t in sorted(pc_m2):
        decls.append(Fact("PC", ("m2", "d"), t))
    for rel, x in data_facts:
        decls.append(Fact(rel, (x, "d"), None))
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, diags
    return onto


def shared_temporal_model(seed: int):
    """Random perdurants, each with several data and result participants.

    Returns (ontology, presence, participation, participants): presence
    maps perdurant -> declared PRE times; participation maps
    (participant, perdurant) -> PC times, each asserted at random as PC
    or through the temporal particularization `joins`; participants
    lists (relation, participant, perdurant) for every isDataOf and
    isResultOf fact, about a third of the data ones asserted as `feeds`.
    """
    rng = random.Random(f"temporal-{seed}")
    perdurants = [f"d{i}" for i in range(rng.randint(1, 4))]
    models = [f"m{i}" for i in range(rng.randint(4, 10))]
    decls = [
        ConceptDecl("Crunching", ("Reasoning",)),
        RelationDecl("feeds", (("Content",), ("AC",)), particularizes="isDataOf"),
        RelationDecl("joins", (("ED",), ("PD",)), temporal=True, particularizes="PC"),
    ]
    decls += [InstanceDecl(d, ("Crunching",)) for d in perdurants]
    decls += [InstanceDecl(m, ("Model",)) for m in models]
    times = range(4)
    presence = {d: set(rng.sample(times, k=rng.randint(0, 3))) for d in perdurants}
    participation: dict[tuple[str, str], set[int]] = {}
    participants = []
    for d in perdurants:
        for t in sorted(presence[d]):
            decls.append(Fact("PRE", (d,), t))
        for m in rng.sample(models, k=rng.randint(2, len(models))):
            pc = set(rng.sample(times, k=rng.randint(0, 4)))
            participation[(m, d)] = pc
            for t in sorted(pc):
                decls.append(Fact(rng.choice(["PC", "joins"]), (m, d), t))
            for rel in rng.sample(["isDataOf", "isResultOf"], k=rng.randint(1, 2)):
                participants.append((rel, m, d))
                asserted = "feeds" if rel == "isDataOf" and rng.random() < 0.33 else rel
                decls.append(Fact(asserted, (m, d), None))
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto, presence, participation, participants


# --- effective label oracle ------------------------------------------------------


def effective_labels_oracle(ontology, snapshot_time: int) -> dict[str, set[str]]:
    """Latest label per exclusivity family, by comparing every pair of
    labels on one concept."""
    out: dict[str, set[str]] = {}
    on: dict[str, list] = {}
    for lb in ontology.labels.values():
        on.setdefault(lb.concept, []).append(lb)
    for labels in on.values():
        for lb in labels:
            if lb.time > snapshot_time:
                continue
            family = LABEL_FAMILY[lb.primitive]
            overridden = any(
                LABEL_FAMILY[other.primitive] == family
                and lb.time < other.time <= snapshot_time
                for other in labels)
            if not overridden:
                out.setdefault(lb.primitive, set()).add(lb.concept)
    return out


def role_io_oracle(ontology, subsumes, concept: str):
    """The data and the result roles of `concept`, by testing every role
    definition's reasoning concept with `subsumes(ancestor, descendant)`."""
    players: dict[str, list[str]] = {}
    for c in ontology.conjunctions():
        players.setdefault(c.definition.formal_role, []).append(c.definition.type_concept)
    hits = []
    for role in sorted(ontology.role_definitions(), key=lambda c: c.name):
        if subsumes(role.definition.reasoning_concept, concept):
            hits.append(RoleRecord(role.name, role.definition.mode,
                                   role.definition.reasoning_concept,
                                   tuple(sorted(players.get(role.name, ())))))
    return (tuple(r for r in hits if r.mode == "data"),
            tuple(r for r in hits if r.mode == "result"))


def statement_span(line: str, line_no: int, file: str) -> SourceSpan:
    """The span of the statement on `line` as the token parser reads it:
    at its first token."""
    return SourceSpan(file, line_no, _tokenize_line(line)[0].column)


# --- reference tokenizer ------------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<word>[A-Za-z][A-Za-z0-9_-]*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<punct>[(),:=|])"
    r"|(?P<bad>[^\s(),:=|]+)"
)
_PUNCT_KIND = {"(": "lparen", ")": "rparen", ",": "comma", ":": "colon",
               "=": "equals", "|": "pipe"}


def reference_tokens(text: str) -> list[Token]:
    """The tokens of a line, one character at a time: `#` where a token
    would start ends the line, `str.isspace` characters are skipped, and
    any other character starts the longest word, numeral, punctuation
    mark or bad token there."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        kind = m.lastgroup if m.lastgroup != "punct" else _PUNCT_KIND[m.group()]
        tokens.append(Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


# --- reference compile ------------------------------------------------------------


def reference_documents(ontology, snapshot_time: int) -> dict[str, dict]:
    """The three bundle documents of `ontology` at `snapshot_time`, built
    straight from its declarations: the labels by `effective_labels_oracle`,
    each task and inference concept's io by `role_io_oracle` over
    `reachability_oracle`, and the parent, annotation, relation and plays
    rules written out plainly.  `emit_bundle` must write them as `json.dumps`
    renders them."""
    effective = effective_labels_oracle(ontology, snapshot_time)
    nodes = sorted(ontology.concepts)
    reach = reachability_oracle(nodes, {(n, p) for n in nodes
                                        for p in direct_supers(ontology.concepts[n])})

    def concept(name: str, members: set[str]) -> dict:
        """A concept's parents are its asserted parents and, for a
        conjunction, both operands, as far as they are in its own model."""
        decl = ontology.concepts[name]
        parents = set(decl.parents)
        if isinstance(decl.definition, Conjunction):
            parents |= {decl.definition.type_concept, decl.definition.formal_role}
        annotations = ontology.annotations.get(name, {})
        return {"name": name, "parents": sorted(parents & members - {name}),
                "annotations": {axis: d.value for axis, d in annotations.items()}}

    def role(record: RoleRecord) -> dict:
        return {"name": record.name, "mode": record.mode,
                "reasoning_concept": record.reasoning_concept, "players": list(record.players)}

    def reasoning(members: set[str], with_methods: bool) -> list[dict]:
        docs = []
        for name in sorted(members):
            doc = concept(name, members)
            inputs, outputs = role_io_oracle(
                ontology, lambda ancestor, descendant: (descendant, ancestor) in reach, name)
            doc["io"] = {"inputs": [role(r) for r in inputs],
                         "outputs": [role(r) for r in outputs]}
            if with_methods:
                doc["methods"] = []
            docs.append(doc)
        return docs

    domain = effective.get("DomainConcept", set())
    # A user relation joins the domain model when every concept of its
    # signature does; its domain is its first position, its range its last.
    relations = [{"name": r.name, "domain": "|".join(r.signature[0]),
                  "range": "|".join(r.signature[-1]), "temporal": r.temporal}
                 for r in sorted(ontology.relations.values(), key=lambda r: r.name)
                 if r.line > 0
                 and all(c in domain for union in r.signature for c in union)]
    plays = [{"type": c.definition.type_concept, "role": c.name}
             for c in sorted(ontology.conjunctions(), key=lambda c: c.name)]
    common = {"schema_version": "1", "snapshot_time": snapshot_time}
    return {
        "domain.json": {**common, "concepts": [concept(n, domain) for n in sorted(domain)],
                        "relations": relations, "plays": plays},
        "inference.json": {**common, "concepts": reasoning(
            effective.get("Inference", set()) | effective.get("TransferFunction", set()),
            with_methods=False)},
        "task.json": {**common, "concepts": reasoning(effective.get("Task", set()),
                                                      with_methods=True)},
    }

def random_label_model(seed: int):
    """Random labels of every primitive on up to six concepts at times
    0-6.  C0 always carries Task and Inference at time 2: two labels of
    one family at one time."""
    rng = random.Random(f"labels-{seed}")
    concepts = [f"C{i}" for i in range(rng.randint(1, 6))]
    decls = [ConceptDecl(c, ("Reasoning",)) for c in concepts]
    triples = {("Task", concepts[0], 2), ("Inference", concepts[0], 2)}
    primitives = sorted(LABEL_FAMILY)
    for _ in range(rng.randint(0, 20)):
        triples.add((rng.choice(primitives), rng.choice(concepts), rng.randint(0, 6)))
    decls += [MetaLabel(*triple) for triple in sorted(triples)]
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def random_role_model(seed: int):
    """Random reasoning taxonomy with role definitions and labels that
    compile.

    2-9 concepts under Reasoning and 0-2 under Communication, each with
    one or two parents among its hook and the earlier concepts.  Up to
    eight data and result roles target random concepts, kernel ones
    included; their names are drawn from one pool, so the roles a concept
    inherits from unrelated ancestors interleave by name.  Some roles are
    played through a conjunction.  Every reasoning concept is labelled
    Task or Inference at one or two distinct times, every Communication
    concept TransferFunction, and a few domain concepts DomainConcept.
    """
    rng = random.Random(f"roles-{seed}")
    decls = []
    taxonomy: dict[str, list[str]] = {"Reasoning": [], "Communication": []}
    for hook, low, high in (("Reasoning", 2, 9), ("Communication", 0, 2)):
        for _ in range(rng.randint(low, high)):
            pool = [hook] + taxonomy[hook]
            name = f"{hook[:3]}{len(taxonomy[hook])}"
            decls.append(ConceptDecl(name, tuple(sorted(set(
                rng.sample(pool, k=min(len(pool), rng.randint(1, 2))))))))
            taxonomy[hook].append(name)
    targets = taxonomy["Reasoning"] + taxonomy["Communication"] \
        + ["Reasoning", "Communication", "AC"]
    for name in rng.sample([f"Role{c}" for c in "ABCDEFGHJK"], k=rng.randint(0, 8)):
        decls.append(ConceptDecl(name, (), RoleDefinition(
            rng.choice(["data", "result"]), rng.choice(targets))))
        if rng.random() < 0.4:
            player = rng.choice(["Model", "Hypothesis"])
            decls.append(ConceptDecl(f"{player}As{name}", (), Conjunction(player, name)))
    for concept in taxonomy["Reasoning"]:
        for time in rng.sample(range(4), k=rng.randint(1, 2)):
            decls.append(MetaLabel(rng.choice(["Task", "Inference"]), concept, time))
    for concept in taxonomy["Communication"]:
        decls.append(MetaLabel("TransferFunction", concept, rng.randint(0, 3)))
    for i in range(rng.randint(0, 3)):
        decls.append(ConceptDecl(f"Dom{i}", (rng.choice(["Model", "Document"]),)))
        decls.append(MetaLabel("DomainConcept", f"Dom{i}", rng.randint(0, 3)))
    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def particularization_model(seed: int):
    onto, diags = load_source(particularization_source(seed))
    assert onto is not None, [d.render() for d in diags]
    return onto


def d1_model(seed: int):
    onto, diags = load_source(d1_source(seed))
    assert onto is not None, [d.render() for d in diags]
    return onto


def d1_on_every_agent_action(facts) -> set[str]:
    """The actions D1's body holds for over the memberships of `facts`:
    an AC with an agent y and an agentive participant z other than y."""
    agents: dict[str, set[str]] = {}
    for g in facts.under(kernel.REL_AGENT):
        agents.setdefault(g.args[1], set()).add(g.args[0])
    return {a for z, a in (g.args for g in facts.under(kernel.REL_PARTICIPATION))
            if agents.get(a, set()) - {z} and facts.has_member(a, kernel.ACTION)
            and any(facts.has_member(z, c) for c in kernel.AGENTIVE_UNION)}


# Model families the fact base is checked against an oracle on: family ->
# (build, the seeds or corpus files it is built from).
FIXPOINT_MODELS = {
    "random_saturation_model": (random_saturation_model, range(200)),
    "random_shared_model": (random_shared_model, range(60)),
    "role_web_model": (role_web_model, range(60)),
    "shared_temporal_model": (lambda seed: shared_temporal_model(seed)[0], range(60)),
    "corpus": (load_corpus_file, ("car_diagnosis.oks", "calibration.oks", "a4_a5_a6.oks")),
    "particularization_model": (particularization_model, range(200)),
    "d1_model": (d1_model, range(120)),
}


def r_up_chain_source(n: int) -> str:
    """n relations, each particularizing the last, and one fact on the
    lowest for each of n instances: R-up derives n * n facts."""
    lines = [f"instance x{i:05d} : Model" for i in range(n)]
    lines += [f"relation R{i:05d} "
              f"{f'particularizes R{i - 1:05d} ' if i else ''}signature (ED)" for i in range(n)]
    lines += [f"fact R{n - 1:05d}(x{i:05d})" for i in range(n)]
    return "\n".join(lines) + "\n"
