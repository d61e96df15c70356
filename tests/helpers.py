"""Shared test helpers: pipeline shortcuts, independent oracles and
seeded random model generators.

The oracles deliberately re-implement the semantics with the dumbest
possible algorithms (full rescans, exhaustive enumeration) so they stay
independent of the production code paths they check.
"""

from __future__ import annotations

import random
from pathlib import Path

from okc.frontend import parse, render
from okc.kernel import merge_with_kernel
from okc.checks import validate
from okc.model import (
    LABEL_FAMILY,
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
)

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "corpus"


def load_source(text: str, filename: str = "<test>"):
    """parse + merge; returns (ontology_or_None, diagnostics)."""
    decls, parse_diags = parse(text, filename)
    if parse_diags:
        return None, parse_diags
    return merge_with_kernel(decls)


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


def load_corpus_file(name: str):
    path = CORPUS / name
    onto, diags = load_source(path.read_text(encoding="utf-8"), str(path))
    assert onto is not None, [d.render() for d in diags]
    return onto


# --- closure oracle ----------------------------------------------------------


def reachability_oracle(nodes: list[str], edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """All (descendant, ancestor) pairs by boolean Floyd-Warshall,
    including the reflexive pairs."""
    reach = {(n, n) for n in nodes} | set(edges)
    for k in nodes:
        for i in nodes:
            if (i, k) not in reach:
                continue
            for j in nodes:
                if (k, j) in reach:
                    reach.add((i, j))
    return reach


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


def engine_sets(factbase):
    members = {(m.instance, m.concept) for m in factbase.members}
    grounds = {(g.relation, g.args, g.time) for g in factbase.grounds}
    return members, grounds


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


# --- random loadable models for round-trips ------------------------------------


def random_loadable_model(seed: int):
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

    onto, diags = merge_with_kernel(decls)
    assert onto is not None, [d.render() for d in diags]
    return onto


def round_trip(onto):
    text = render(onto)
    decls, parse_diags = parse(text, "<render>")
    assert not parse_diags, [d.render() for d in parse_diags]
    reloaded, load_diags = merge_with_kernel(decls)
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
    """Latest label per exclusivity family, by comparing every pair of labels."""
    out: dict[str, set[str]] = {}
    labels = list(ontology.labels.values())
    for lb in labels:
        if lb.time > snapshot_time:
            continue
        family = LABEL_FAMILY[lb.primitive]
        overridden = any(
            other.concept == lb.concept
            and LABEL_FAMILY[other.primitive] == family
            and lb.time < other.time <= snapshot_time
            for other in labels)
        if not overridden:
            out.setdefault(lb.primitive, set()).add(lb.concept)
    return out


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
