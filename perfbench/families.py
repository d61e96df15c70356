"""Seeded `.oks` model families and the outputs okc must produce on them.

Every expected output here is computed from the generator's own plan,
never by running okc: findings per file and code, the concepts that are
effectively Task, Inference or DomainConcept at the compile snapshot, and
the memberships `okc explain` must list for one probe instance.

Families:

    activities  n activity concepts under Calibrating, each with four
                instances (activity, data model, result model, agent) and
                eight facts; data and result roles and a conjunction make
                D4, D5 and D6 fire.  Some Task labels are overridden by a
                later Inference label.
    taxonomy    layered DAGs of reasoning and domain concepts with role
                definitions, conjunctions, annotations and disjoint pairs;
                every labelled concept carries three labels over a spread
                of time points.  One probe instance, nothing else.
    faulty      many activity files with seeded defects: syntax errors
                (P1), dangling references (E3), subsumption cycles (W1)
                and planted validator findings.

Knobs, as keyword arguments: size (`n`, `files`, `n_activities`),
taxonomy `depth` and `fanout`, time spread (`time_spread`,
`time_points`), `disjoint_pairs`, and the defect mix (`defects`, `mix`).
The rest of the shape is fixed by the module constants below.

The same seed and knobs always give the same bytes: generation draws only
from `random.Random` seeded with a string, and iterates lists, never sets.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# Kernel ancestry of `Reasoning`, written out so that the explain oracle
# does not depend on okc's kernel tables.
REASONING_UP = ("Reasoning", "AC", "ACC", "EV", "PD", "PT")

# Kernel hooks under ED for domain subtrees.  Conjunctions pair a domain
# concept with a data role (itself under ED), so no hook may sit under PD.
DOMAIN_HOOKS = ("POB", "NPOB", "Model", "Document", "Expression", "Hypothesis")

ACTIVITY_HEADER = (
    "concept Calibrating specializes Reasoning",
    "role CalData = data of Calibrating",
    "role CalResult = result of Calibrating",
    "concept CalModel = Model and CalData",
    "annotate CalData rigidity anti-rigid",
    "annotate CalData dependence dependent",
    "annotate CalData identity none",
    "annotate CalModel rigidity anti-rigid",
    "annotate CalModel dependence dependent",
    "annotate CalModel identity carries",
    "annotate Model rigidity rigid",
    "annotate Model identity carries",
    "label FormalKnowledgeRole CalData at 2",
    "label MaterialKnowledgeRole CalModel at 2",
)

RELABEL = 0.25           # share of activities whose Task label a later Inference overrides
MAX_PARENTS = 3          # taxonomy parents per concept, drawn from the level above
ROLE_EVERY = 5           # a data and a result role on every 5th reasoning concept
CONJUNCTION_EVERY = 10   # one conjunction concept per 10 concepts
LABELLED_DOMAIN = 0.9    # share of domain concepts that carry labels
LABELS_PER_CONCEPT = 3


@dataclass
class ModelFile:
    """One generated input file and what okc must report on it."""

    name: str
    text: str
    findings: Counter = field(default_factory=Counter)
    task: frozenset = frozenset()
    inference: frozenset = frozenset()
    domain: frozenset = frozenset()
    probe: Optional[str] = None
    probe_memberships: frozenset = frozenset()

    def has_errors(self) -> bool:
        return any(code != "Ad35" for code in self.findings)


@dataclass
class Workload:
    """Files for `okc check`, its half-size companion, and the single
    file that `okc compile` and `okc explain` run on."""

    files: list[ModelFile]
    half: list[ModelFile]
    target: ModelFile


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _effective(labels: list[tuple[str, str, int]], snapshot: int) -> dict[str, set[str]]:
    """Latest label per (concept, family) at or before the snapshot."""
    family = {"Task": "reasoning", "Inference": "reasoning", "DomainConcept": "domain"}
    latest: dict[tuple[str, str], tuple[int, str]] = {}
    for primitive, concept, time in labels:
        if primitive not in family or time > snapshot:
            continue
        key = (concept, family[primitive])
        if key not in latest or latest[key][0] < time:
            latest[key] = (time, primitive)
    out: dict[str, set[str]] = {"Task": set(), "Inference": set(), "DomainConcept": set()}
    for (concept, _), (_, primitive) in latest.items():
        out[primitive].add(concept)
    return out


# --- activities ----------------------------------------------------------------


@dataclass
class _Activity:
    i: int
    t0: int          # first presence time
    t1: int          # last presence time
    task_at: int
    inference_at: Optional[int] = None
    data_pc: Optional[int] = None    # time of PC(dm, act); default t0
    result_pc: Optional[int] = None  # time of PC(rm, act); default t1

    def lines(self) -> list[str]:
        i = self.i
        out = [f"concept Act{i} specializes Calibrating",
               f"label Task Act{i} at {self.task_at}"]
        if self.inference_at is not None:
            out.append(f"label Inference Act{i} at {self.inference_at}")
        data_pc = self.t0 if self.data_pc is None else self.data_pc
        result_pc = self.t1 if self.result_pc is None else self.result_pc
        out += [
            f"instance act{i} : Act{i}",
            f"instance dm{i} : Model",
            f"instance rm{i} : Model",
            f"instance ag{i} : APO",
            f"fact PRE(act{i}, {self.t0})",
            f"fact PRE(act{i}, {self.t1})",
            f"fact isDataOf(dm{i}, act{i})",
            f"fact isResultOf(rm{i}, act{i})",
            f"fact isAgentOf(ag{i}, act{i})",
            f"fact PC(dm{i}, act{i}, {data_pc})",
            f"fact PC(rm{i}, act{i}, {result_pc})",
            f"fact PC(ag{i}, act{i}, {self.t0})",
        ]
        return out


def _new_activity(rng: random.Random, i: int, time_spread: int) -> _Activity:
    t0 = rng.randrange(time_spread - 1)
    t1 = rng.randrange(t0 + 1, time_spread)
    return _Activity(i, t0, t1, rng.randrange(time_spread))


def _activity_memberships(i: int) -> frozenset:
    return frozenset((f"Act{i}", "Calibrating") + REASONING_UP)


def activities_file(seed, n: int = 400, time_spread: int = 8) -> ModelFile:
    """The ROADMAP Baseline family: n Task-labelled activities."""
    rng = _rng("activities", seed, n, time_spread, RELABEL)
    acts = []
    for i in range(n):
        act = _new_activity(rng, i, time_spread)
        if act.task_at < time_spread - 1 and rng.random() < RELABEL:
            act.inference_at = rng.randrange(act.task_at + 1, time_spread)
        acts.append(act)
    lines = list(ACTIVITY_HEADER)
    labels = [("FormalKnowledgeRole", "CalData", 2), ("MaterialKnowledgeRole", "CalModel", 2)]
    for act in acts:
        lines += act.lines()
        labels.append(("Task", f"Act{act.i}", act.task_at))
        if act.inference_at is not None:
            labels.append(("Inference", f"Act{act.i}", act.inference_at))
    effective = _effective(labels, max(t for _, _, t in labels))
    probe = rng.randrange(n)
    return ModelFile(
        f"activities_{n}.oks", "\n".join(lines) + "\n",
        task=frozenset(effective["Task"]), inference=frozenset(effective["Inference"]),
        domain=frozenset(effective["DomainConcept"]),
        probe=f"act{probe}", probe_memberships=_activity_memberships(probe))


def activities(seed, n: int = 400, **knobs) -> Workload:
    main = activities_file(seed, n, **knobs)
    half = activities_file(seed, n // 2, **knobs)
    return Workload([main], [half], main)


# --- taxonomy ------------------------------------------------------------------


def _layered_dag(rng: random.Random, prefix: str, n: int, hooks: tuple[str, ...],
                 depth: int, fanout: int):
    """n concepts in `fanout` subtrees of `depth` levels each.

    Returns (names, parents, subtree, level) with parents drawn from the
    level above inside the same subtree; level 0 hangs under a hook.
    """
    names = [f"{prefix}{i}" for i in range(n)]
    subtree = [i % fanout for i in range(n)]
    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(subtree[i], []).append(i)
    level = [0] * n
    for group in members.values():
        for rank, i in enumerate(group):
            level[i] = rank * depth // len(group)
    by_level: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        by_level.setdefault((subtree[i], level[i]), []).append(i)
    parents: list[tuple[str, ...]] = []
    for i in range(n):
        if level[i] == 0:
            parents.append((hooks[subtree[i] % len(hooks)],))
            continue
        above = by_level[(subtree[i], level[i] - 1)]
        k = rng.randint(1, min(MAX_PARENTS, len(above)))
        parents.append(tuple(sorted(names[j] for j in rng.sample(above, k))))
    return names, parents, subtree, level


def _timed_labels(rng: random.Random, concept: str, primitives: tuple[str, ...],
                  time_points: int) -> list[tuple[str, str, int]]:
    times = sorted(rng.sample(range(time_points), LABELS_PER_CONCEPT))
    return [(rng.choice(primitives), concept, t) for t in times]


def taxonomy_file(seed, n: int = 800, depth: int = 10, fanout: int = 8,
                  time_points: int = 8, disjoint_pairs: int = 40) -> ModelFile:
    """n reasoning concepts plus n domain concepts, no instances but a probe."""
    rng = _rng("taxonomy", seed, n, depth, fanout, MAX_PARENTS, time_points)
    r_names, r_parents, _, r_level = _layered_dag(rng, "R", n, ("Reasoning",), depth, fanout)
    d_names, d_parents, d_subtree, _ = _layered_dag(rng, "D", n, DOMAIN_HOOKS, depth, fanout)

    lines = [f"concept {c} specializes {', '.join(p)}"
             for c, p in zip(r_names + d_names, r_parents + d_parents)]
    data_roles = []
    for k, target in enumerate(r_names[::ROLE_EVERY]):
        lines.append(f"role RD{k} = data of {target}")
        lines.append(f"role RR{k} = result of {target}")
        data_roles.append(f"RD{k}")
    for role in data_roles + [f"RR{k}" for k in range(len(data_roles))]:
        lines += [f"annotate {role} rigidity anti-rigid",
                  f"annotate {role} dependence dependent",
                  f"annotate {role} identity none"]
    for k in range(n // CONJUNCTION_EVERY):
        lines.append(f"concept CJ{k} = {rng.choice(d_names)} and {rng.choice(data_roles)}")
        lines.append(f"annotate CJ{k} rigidity anti-rigid")
    # Domain concepts are only ever rigid, so no anti-rigid concept
    # (roles, conjunctions) subsumes a rigid one (L6).
    for name in rng.sample(d_names, n // 4):
        lines += [f"annotate {name} rigidity rigid", f"annotate {name} identity carries"]
    # Disjoint pairs come from different subtrees, which share no
    # descendant (W2).
    pairs: list[tuple[str, str]] = []
    while len(pairs) < disjoint_pairs:
        a, b = rng.sample(range(n), 2)
        pair = tuple(sorted((d_names[a], d_names[b])))
        if d_subtree[a] != d_subtree[b] and pair not in pairs:
            pairs.append(pair)
    lines += [f"disjoint {a} {b}" for a, b in pairs]

    labels: list[tuple[str, str, int]] = []
    for name in r_names:
        labels += _timed_labels(rng, name, ("Task", "Inference"), time_points)
    for name in d_names:
        if rng.random() < LABELLED_DOMAIN:
            labels += _timed_labels(rng, name, ("DomainConcept",), time_points)
    lines += [f"label {p} {c} at {t}" for p, c, t in labels]

    deepest = max(r_level)
    leaf = rng.choice([i for i in range(n) if r_level[i] == deepest])
    lines.append(f"instance probe : {r_names[leaf]}")
    parents_of = dict(zip(r_names, r_parents))
    up: set[str] = set()
    todo = [r_names[leaf]]
    while todo:
        name = todo.pop()
        if name in up:
            continue
        up.add(name)
        todo += [p for p in parents_of.get(name, ()) if p in parents_of]
    effective = _effective(labels, max(t for _, _, t in labels))
    return ModelFile(
        f"taxonomy_{n}.oks", "\n".join(lines) + "\n",
        task=frozenset(effective["Task"]), inference=frozenset(effective["Inference"]),
        domain=frozenset(effective["DomainConcept"]),
        probe="probe", probe_memberships=frozenset(up | set(REASONING_UP)))


def taxonomy(seed, n: int = 800, **knobs) -> Workload:
    main = taxonomy_file(seed, n, **knobs)
    half = taxonomy_file(seed, n // 2, **knobs)
    return Workload([main], [half], main)


# --- faulty --------------------------------------------------------------------


class _Draft:
    """An activity file under construction: plants add lines and findings,
    and take activities out of the pool so that no two plants touch the
    same one."""

    def __init__(self, rng: random.Random, name: str, n_activities: int, time_spread: int):
        self.rng = rng
        self.name = name
        self.acts = [_new_activity(rng, i, time_spread) for i in range(n_activities)]
        self.free = list(range(n_activities))
        rng.shuffle(self.free)
        self.extra: list[str] = []
        self.findings: Counter = Counter()

    def take(self) -> _Activity:
        return self.acts[self.free.pop()]

    def lines(self) -> list[str]:
        out = list(ACTIVITY_HEADER)
        for act in self.acts:
            out += act.lines()
        return out + self.extra

    def finish(self, lines: Optional[list[str]] = None) -> ModelFile:
        probe = self.acts[self.free[0]].i if self.free else None
        text = "\n".join(self.lines() if lines is None else lines) + "\n"
        return ModelFile(
            self.name, text, Counter(self.findings),
            probe=None if probe is None else f"act{probe}",
            probe_memberships=frozenset() if probe is None else _activity_memberships(probe))


# Each plant adds one finding of its code and nothing else.  Names carry
# the plant number k, so plants never collide.

def _plant_a13(d: _Draft, k: int) -> None:
    act = d.take()
    act.data_pc = act.t1  # the data model joins after the first presence time


def _plant_r13(d: _Draft, k: int) -> None:
    act = d.take()
    act.result_pc = act.t0  # the result model leaves before the last presence time


def _plant_s1(d: _Draft, k: int) -> None:
    d.extra += [f"instance sp{k} : PD", f"instance se{k} : PD", f"fact PC(sp{k}, se{k}, 0)"]


def _plant_s2(d: _Draft, k: int) -> None:
    # The affected model participates, but in another perdurant, so no
    # PC fact witnesses isAffectedBy and Ad35 stays quiet.
    act = d.take()
    d.extra += [f"instance sm{k} : Model", f"instance ss{k} : STV",
                f"fact isAffectedBy(sm{k}, act{act.i})", f"fact PC(sm{k}, ss{k}, 0)"]


def _plant_a3(d: _Draft, k: int) -> None:
    d.extra += [f"concept Chat{k} specializes Communication",
                f"instance both{k} : Reasoning, Chat{k}"]


def _plant_ad35(d: _Draft, k: int) -> None:
    d.extra.append(f"instance idle{k} : Document")


def _plant_a7(d: _Draft, k: int) -> None:
    d.extra += [f"concept Lull{k} specializes STV", f"label Task Lull{k} at 1"]


def _plant_a8(d: _Draft, k: int) -> None:
    act = d.take()
    d.extra.append(f"label TransferFunction Act{act.i} at {act.task_at}")


def _plant_l2b(d: _Draft, k: int) -> None:
    d.extra += [f"concept Calm{k} specializes STV", f"label Inference Calm{k} at 1"]


def _plant_l3(d: _Draft, k: int) -> None:
    d.extra += [f"concept Widget{k} specializes NPOB", f"label KnowledgeRole Widget{k} at 1"]


def _plant_l4(d: _Draft, k: int) -> None:
    act = d.take()
    d.extra += [f"role Feed{k} = data of Act{act.i}",
                f"annotate Feed{k} rigidity anti-rigid",
                f"annotate Feed{k} dependence dependent",
                f"annotate Feed{k} identity carries",
                f"label FormalKnowledgeRole Feed{k} at 2"]


def _plant_l5(d: _Draft, k: int) -> None:
    act = d.take()
    d.extra.append(f"label Inference Act{act.i} at {act.task_at}")


def _plant_l6(d: _Draft, k: int) -> None:
    d.extra += [f"concept Holder{k} specializes NPOB",
                f"annotate Holder{k} rigidity anti-rigid",
                f"concept Auditor{k} specializes Holder{k}",
                f"annotate Auditor{k} rigidity rigid"]


def _plant_w2(d: _Draft, k: int) -> None:
    d.extra += [f"concept Flora{k} specializes NPOB", f"concept Fauna{k} specializes NPOB",
                f"disjoint Flora{k} Fauna{k}", f"concept Chimera{k} specializes Flora{k}, Fauna{k}"]


VALIDATOR_PLANTS: dict[str, Callable[[_Draft, int], None]] = {
    "A13": _plant_a13, "R13": _plant_r13, "S1": _plant_s1, "S2": _plant_s2,
    "A3": _plant_a3, "Ad35": _plant_ad35, "A7": _plant_a7, "A8": _plant_a8,
    "L2b": _plant_l2b, "L3": _plant_l3, "L4": _plant_l4, "L5": _plant_l5,
    "L6": _plant_l6, "W2": _plant_w2,
}
ERROR_PLANTS = tuple(code for code in VALIDATOR_PLANTS if code != "Ad35")


def _p1_line(d: _Draft, k: int) -> str:
    act = d.acts[k % len(d.acts)]
    return (f"label Task Act{act.i} at -1",
            f"fact PRE(act{act.i} {act.t0})",
            f"concpt Broken{k} specializes Reasoning")[k % 3]


def _e3_line(k: int) -> str:
    return (f"concept Orphan{k} specializes Missing{k}", f"fact PRE(ghost{k}, 0)")[k % 2]


def _w1_lines(k: int) -> list[str]:
    return [f"concept CycA{k} specializes CycB{k}", f"concept CycB{k} specializes CycA{k}"]


# File kinds per 40 files; the first kind takes up rounding.  Counts are
# fixed, not drawn, so every seed does the same amount of work of each kind.
FAULTY_MIX = (("validator", 22), ("p1", 6), ("e3", 6), ("w1", 2), ("clean", 4))


def _faulty_draft(rng: random.Random, name: str, kind: str, n_activities: int,
                  time_spread: int, defects: int) -> ModelFile:
    d = _Draft(rng, name, n_activities, time_spread)
    if kind == "validator":
        codes = [rng.choice(ERROR_PLANTS)] + \
            [rng.choice(list(VALIDATOR_PLANTS)) for _ in range(defects - 1)]
        for k, code in enumerate(codes):
            VALIDATOR_PLANTS[code](d, k)
            d.findings[code] += 1
    elif kind == "p1":
        lines = d.lines()
        for k in range(defects):
            lines.insert(rng.randrange(len(lines) + 1), _p1_line(d, k))
        d.findings["P1"] = defects
        return d.finish(lines)
    elif kind == "e3":
        d.extra += [_e3_line(k) for k in range(defects)]
        d.findings["E3"] = defects
    elif kind == "w1":
        for k in range(defects):
            d.extra += _w1_lines(k)
        d.findings["W1"] = defects
    return d.finish()


def faulty_files(seed, files: int = 40, n_activities: int = 50, time_spread: int = 8,
                 defects: int = 4, mix=FAULTY_MIX) -> list[ModelFile]:
    rng = _rng("faulty", seed, files, n_activities, time_spread, defects)
    total = sum(weight for _, weight in mix)
    counts = [max(1, weight * files // total) for _, weight in mix]
    counts[0] += max(0, files - sum(counts))
    kinds = [kind for (kind, _), count in zip(mix, counts) for _ in range(count)]
    rng.shuffle(kinds)
    return [_faulty_draft(rng, f"faulty_{files}_{j:03d}.oks", kind, n_activities,
                          time_spread, defects)
            for j, kind in enumerate(kinds)]


def faulty(seed, files: int = 40, **knobs) -> Workload:
    main = faulty_files(seed, files, **knobs)
    half = faulty_files(seed, files // 2, **knobs)
    # compile and explain run on the first file with planted validator
    # errors: compile is refused after validation, explain still works.
    target = next(f for f in main if f.has_errors() and f.probe is not None
                  and not {"P1", "E3", "W1"} & set(f.findings))
    return Workload(main, half, target)


FAMILIES: dict[str, Callable[..., Workload]] = {
    "activities": activities, "taxonomy": taxonomy, "faulty": faulty,
}


# --- plant self-check ----------------------------------------------------------


def single_plants(time_spread: int = 8) -> list[ModelFile]:
    """Each defect class planted alone on a one-activity model."""
    out = []
    for code, plant in VALIDATOR_PLANTS.items():
        d = _Draft(_rng("plant", code), f"plant_{code}.oks", 1, time_spread)
        plant(d, 0)
        d.findings[code] = 1
        out.append(d.finish())
    whole_file = [("P1", k, lambda d, k: d.lines() + [_p1_line(d, k)]) for k in range(3)]
    whole_file += [("E3", k, lambda d, k: d.lines() + [_e3_line(k)]) for k in range(2)]
    whole_file.append(("W1", 0, lambda d, k: d.lines() + _w1_lines(k)))
    for code, k, lines in whole_file:
        d = _Draft(_rng("plant", code, k), f"plant_{code}_{k}.oks", 1, time_spread)
        d.findings[code] = 1
        out.append(d.finish(lines(d, k)))
    return out
