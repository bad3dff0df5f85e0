"""Labeled accepting Petri nets.

A net is (places, transitions, arcs, initial marking, final marking, labels).
Arcs are a set of (source, target) pairs between places and transitions, so
every arc has weight one: firing a transition consumes one token from each
input place and produces one token on each output place. Transitions are
either labeled with an activity name or silent; silent transitions fire
normally but emit nothing during playout.

Markings are plain dicts mapping place id to a positive token count.

The module covers parsing of the line-oriented .net model format, firing
semantics, workflow-net structure checks, and the one reachability graph that
alignments, bounded relaxed soundness and stochastic playout with
drop/duplicate noise all read. The graph records the node of the final
marking. DEFAULT_STATE_CAP is the one resource cap: it is read at call time
and bounds the markings of a graph and, in an alignment, the states of a
cost-to-go table of its own, the states the walk passes and the expansions
of the search. Playout raises the graph's ModelError on an unbounded net and
PlayoutError over the cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .errors import LogError, ModelError, PlayoutError
from .eventlog import EventLog, Trace, _check_token

Marking = dict

# Never valid as activity names: "tau" renders silent moves, ">>" renders
# skip moves, and the last two are reserved diagnosis column names.
RESERVED_ACTIVITY_NAMES = ("tau", ">>", "UNKNOWN", "fitness")

# The one resource cap, read at call time: the most markings a reachability
# graph may hold, states a cost-to-go table of its own may hold, states an
# alignment walk may pass and states an alignment search may expand.
DEFAULT_STATE_CAP = 1_000_000

# playout's default for the most firings a walk may take before it is discarded.
DEFAULT_MAX_STEPS = 200


class PetriNet:
    """Immutable-by-convention labeled accepting Petri net.

    labels maps every transition id to an activity name, or None for silent
    transitions. Structural validation happens at construction; the stricter
    requirement that every transition has at least one input and one output
    arc is enforced when loading from text (parse_model), which keeps
    deliberately degenerate nets constructible for analysis.
    """

    def __init__(self, places, transitions, arcs, initial_marking, final_marking,
                 labels, name: str = "net"):
        self.name = str(name)
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.arcs = frozenset((str(a), str(b)) for a, b in arcs)
        self.initial_marking = dict(initial_marking)
        self.final_marking = dict(final_marking)
        self.labels = dict(labels)
        self._validate()
        self.place_order = tuple(sorted(self.places))
        ins: dict[str, list[str]] = {t: [] for t in self.transitions}
        outs: dict[str, list[str]] = {t: [] for t in self.transitions}
        for a, b in self.arcs:
            if b in self.transitions:
                ins[b].append(a)
            else:
                outs[a].append(b)
        self.preset = {t: tuple(sorted(ins[t])) for t in self.transitions}
        self.postset = {t: tuple(sorted(outs[t])) for t in self.transitions}
        self.transition_order = tuple(sorted(self.transitions))
        self.visible_labels = frozenset(v for v in self.labels.values() if v is not None)
        self._caches: dict = {}

    def _validate(self) -> None:
        if not self.places:
            raise ModelError("net has no places")
        if self.places & self.transitions:
            clash = sorted(self.places & self.transitions)
            raise ModelError(f"ids used both as place and transition: {clash}")
        for a, b in self.arcs:
            p_to_t = a in self.places and b in self.transitions
            t_to_p = a in self.transitions and b in self.places
            if not (p_to_t or t_to_p):
                raise ModelError(f"arc must connect a place and a transition: ({a}, {b})")
        if set(self.labels) != self.transitions:
            raise ModelError("labels must cover exactly the transition set")
        seen = {}
        for t, act in self.labels.items():
            if act is None:
                continue
            # a label must read back from a log: one token, without '|'
            try:
                _check_token(act, "activity")
            except LogError as exc:
                raise ModelError(f"transition {t!r}: {exc}") from None
            if act in RESERVED_ACTIVITY_NAMES:
                raise ModelError(f"reserved token cannot be an activity name: {act!r}")
            # an activity names a column of the diagnoses and detector files
            if "," in act:
                raise ModelError(f"activity name may not contain ',': {act!r}")
            if act in seen:
                raise ModelError(f"activity {act!r} labels both {seen[act]} and {t}")
            seen[act] = t
        for which, m in (("initial", self.initial_marking), ("final", self.final_marking)):
            if not m:
                raise ModelError(f"missing {which} marking")
            for p, k in m.items():
                if p not in self.places:
                    raise ModelError(f"{which} marking references unknown place {p!r}")
                if not isinstance(k, int) or k <= 0:
                    raise ModelError(f"{which} marking count for {p!r} must be a positive int")

    def is_silent(self, transition: str) -> bool:
        return self.labels[transition] is None

    # -- internal tuple encoding used by the search modules -----------------

    def _to_key(self, marking: Marking) -> tuple[int, ...]:
        return tuple(marking.get(p, 0) for p in self.place_order)

    def _from_key(self, key) -> Marking:
        return {p: k for p, k in zip(self.place_order, key) if k}


def enabled(net: PetriNet, marking: Marking) -> set[str]:
    """Transitions firable in the marking.

    A transition is enabled when it has at least one input place and every
    input place holds at least one token. Transitions without input arcs are
    never enabled (they are structurally dead, not universally firable).
    """
    out = set()
    for t in net.transitions:
        pre = net.preset[t]
        if pre and all(marking.get(p, 0) >= 1 for p in pre):
            out.add(t)
    return out


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire one transition, returning the successor marking."""
    if transition not in net.transitions:
        raise ModelError(f"unknown transition {transition!r}")
    pre = net.preset[transition]
    if not pre or any(marking.get(p, 0) < 1 for p in pre):
        raise ModelError(f"transition {transition!r} is not enabled")
    out = dict(marking)
    for p in pre:
        out[p] -= 1
        if out[p] == 0:
            del out[p]
    for p in net.postset[transition]:
        out[p] = out.get(p, 0) + 1
    return out


def is_workflow_net(net: PetriNet) -> bool:
    """Structural workflow-net test.

    Exactly one place without incoming arcs (the source), exactly one without
    outgoing arcs (the sink), the initial marking is one token on the source,
    and the final marking puts at least one token on the sink.
    """
    has_in = {b for _, b in net.arcs if b in net.places}
    has_out = {a for a, _ in net.arcs if a in net.places}
    sources = [p for p in net.places if p not in has_in]
    sinks = [p for p in net.places if p not in has_out]
    if len(sources) != 1 or len(sinks) != 1:
        return False
    if net.initial_marking != {sources[0]: 1}:
        return False
    return net.final_marking.get(sinks[0], 0) >= 1


@dataclass(frozen=True)
class SoundnessReport:
    """Result of the bounded soundness exploration.

    sound is True only when the final marking is reachable from every
    reachable marking and no transition is dead. When more markings are
    reachable than the cap allows, or the net is unbounded, the analysis is
    inconclusive: sound and final_always_reachable are False,
    dead_transitions is empty and markings_explored is the cap.
    """

    sound: bool
    final_always_reachable: bool
    dead_transitions: tuple[str, ...]
    markings_explored: int
    inconclusive: bool


def reachability_graph(net: PetriNet):
    """Forward reachability graph of the net, or None when more than
    DEFAULT_STATE_CAP markings are reachable.

    Returns (succ, keys, final): keys lists the reachable marking keys
    (net._to_key) in breadth-first order, so the initial marking is node 0;
    succ[i] holds (transition, successor node) pairs sorted by transition id;
    final is the node of the final marking, or None when it is unreachable.
    Only complete graphs are cached on the net, so every caller reads the
    same graph whatever the cap was when it was built.

    Raises ModelError naming a place when the net is unbounded: a new marking
    that strictly covers one of its breadth-first ancestors can repeat the
    firings between them forever, pumping that place.
    """
    graph = net._caches.get("graph")
    if graph is None:
        m0 = net._to_key(net.initial_marking)
        index = {m0: 0}
        keys = [m0]
        parent = [-1]
        succ: list[tuple] = []
        for i, key in enumerate(keys):  # keys grows while scanned, as a FIFO queue
            marking = net._from_key(key)
            nexts = []
            for t in sorted(enabled(net, marking)):
                nxt = net._to_key(fire(net, marking, t))
                if nxt not in index:
                    _check_not_pumped(net, keys, parent, i, nxt)
                    if len(keys) >= DEFAULT_STATE_CAP:
                        return None
                    index[nxt] = len(keys)
                    keys.append(nxt)
                    parent.append(i)
                nexts.append((t, index[nxt]))
            succ.append(tuple(nexts))
        final = index.get(net._to_key(net.final_marking))
        graph = net._caches["graph"] = (tuple(succ), keys, final)
    return graph


def _check_not_pumped(net: PetriNet, keys, parent, i: int, new) -> None:
    """Raise when the new marking key, reached from keys[i], strictly covers
    keys[i] or one of its breadth-first ancestors."""
    while i >= 0:
        old = keys[i]
        if all(a <= b for a, b in zip(old, new)):  # new is not old: some a < b
            place = next(p for p, a, b in zip(net.place_order, old, new) if a < b)
            raise ModelError(f"net {net.name} is unbounded: place {place!r} gains "
                             f"tokens without limit")
        i = parent[i]


def check_soundness(net: PetriNet) -> SoundnessReport:
    """Relaxed soundness via the reachability graph.

    Checks (a) that the final marking stays reachable from every reachable
    marking and (b) that every transition is enabled somewhere. When more
    than DEFAULT_STATE_CAP markings are reachable, or the net is unbounded,
    the report says inconclusive rather than failing.
    """
    try:
        graph = reachability_graph(net)
    except ModelError:  # unbounded
        graph = None
    if graph is None:
        return SoundnessReport(False, False, (), DEFAULT_STATE_CAP, True)
    succ, keys, final = graph
    preds: list[list[int]] = [[] for _ in keys]
    for src, nexts in enumerate(succ):
        for _, dst in nexts:
            preds[dst].append(src)
    covered = set() if final is None else {final}
    stack = list(covered)
    while stack:
        for prev in preds[stack.pop()]:
            if prev not in covered:
                covered.add(prev)
                stack.append(prev)
    final_ok = len(covered) == len(keys)
    fired = {t for nexts in succ for t, _ in nexts}
    dead = tuple(t for t in net.transition_order if t not in fired)
    return SoundnessReport(final_ok and not dead, final_ok, dead, len(keys), False)


@dataclass(frozen=True)
class NoiseParams:
    """Per-event playout noise: drop and in-place duplicate probabilities."""

    p_drop: float = 0.0
    p_dup: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("p_drop", self.p_drop), ("p_dup", self.p_dup)):
            if not 0.0 <= p <= 1.0:
                raise ModelError(f"{name} must be in [0, 1], got {p}")


_MAX_CONSECUTIVE_DISCARDS = 1000


def check_max_steps(max_steps) -> None:
    """PlayoutError unless a walk of playout may fire at least once."""
    if max_steps < 1:
        raise PlayoutError(f"max_steps must be >= 1, got {max_steps}")


def playout(net: PetriNet, n_traces: int, max_steps: int = DEFAULT_MAX_STEPS, seed: int = 0,
            noise: NoiseParams = NoiseParams()) -> EventLog:
    """Simulate the net: uniform random walks over its reachability graph.

    Each trace follows uniformly chosen edges from the initial marking until
    the final marking is hit or max_steps firings pass; walks that miss it are
    discarded and retried. Silent transitions emit no event. After a walk
    succeeds, each emitted event is independently dropped with probability
    noise.p_drop, and a kept event is duplicated in place with probability
    noise.p_dup. Deterministic for a given seed. Raises ModelError on an
    unbounded net, and PlayoutError over DEFAULT_STATE_CAP markings or when
    the final marking is not reachable.
    """
    if n_traces < 0:
        raise PlayoutError(f"n_traces must be >= 0, got {n_traces}")
    check_max_steps(max_steps)
    graph = reachability_graph(net)
    if graph is None:
        raise PlayoutError(f"net {net.name} has more than {DEFAULT_STATE_CAP} reachable markings")
    succ, keys, final = graph
    if final is None:
        dead = next((key for key, nexts in zip(keys, succ) if not nexts), None)
        where = "" if dead is None else f"; deadlock at marking {net._from_key(dead)}"
        raise PlayoutError(f"net {net.name}: final marking {net.final_marking} is not "
                           f"reachable from the initial marking{where}")
    rng = random.Random(seed)
    traces = []
    discards = 0
    while len(traces) < n_traces:
        state = 0
        events: list[str] = []
        for _ in range(max_steps):
            if state == final:
                break
            options = succ[state]
            if not options:
                raise PlayoutError(f"deadlock at marking {net._from_key(keys[state])} "
                                   "before the final marking; net is not sound")
            t, state = rng.choice(options)
            act = net.labels[t]
            if act is not None:
                events.append(act)
        if state != final:
            discards += 1
            if discards > _MAX_CONSECUTIVE_DISCARDS:
                raise PlayoutError(
                    f"playout cannot reach final marking within {max_steps} steps "
                    f"({discards - 1} consecutive discards)")
            continue
        discards = 0
        noisy: list[str] = []
        for ev in events:
            if rng.random() < noise.p_drop:
                continue
            noisy.append(ev)
            if rng.random() < noise.p_dup:
                noisy.append(ev)
        traces.append(Trace(f"c{len(traces) + 1}", tuple(noisy)))
    return EventLog(traces)


def parse_model(text: str, name: str = "net") -> PetriNet:
    """Parse the line-oriented .net model format.

    Directives, one per line, with '#' comments:

        place <id>
        trans <id> label <activity>
        trans <id> silent
        arc <src> <dst>
        init <place> <count>
        final <place> <count>

    Every transition must end up with at least one input and one output arc.
    """
    places: list[str] = []
    transitions: list[str] = []
    labels: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    init: dict[str, int] = {}
    final: dict[str, int] = {}

    def fail(no: int, msg: str):
        raise ModelError(f"{name}, line {no}: {msg}")

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "place":
            if len(parts) != 2:
                fail(no, f"expected 'place <id>': {line!r}")
            if parts[1] in places or parts[1] in transitions:
                fail(no, f"duplicate id {parts[1]!r}")
            places.append(parts[1])
        elif kind == "trans":
            if len(parts) == 4 and parts[2] == "label":
                t, act = parts[1], parts[3]
            elif len(parts) == 3 and parts[2] == "silent":
                t, act = parts[1], None
            else:
                fail(no, f"expected 'trans <id> label <activity>' or 'trans <id> silent': {line!r}")
            if t in places or t in transitions:
                fail(no, f"duplicate id {t!r}")
            transitions.append(t)
            labels[t] = act
        elif kind == "arc":
            if len(parts) != 3:
                fail(no, f"expected 'arc <src> <dst>': {line!r}")
            arcs.append((parts[1], parts[2]))
        elif kind in ("init", "final"):
            if len(parts) != 3:
                fail(no, f"expected '{kind} <place> <count>': {line!r}")
            try:
                count = int(parts[2])
            except ValueError:
                fail(no, f"count must be an integer: {parts[2]!r}")
            target = init if kind == "init" else final
            if parts[1] in target:
                fail(no, f"duplicate {kind} entry for {parts[1]!r}")
            target[parts[1]] = count
        else:
            fail(no, f"unknown directive {kind!r}")

    known = set(places) | set(transitions)
    for a, b in arcs:
        if a not in known or b not in known:
            missing = a if a not in known else b
            raise ModelError(f"{name}: arc references unknown id {missing!r}")
    net = PetriNet(places, transitions, arcs, init, final, labels, name=name)
    for t in net.transition_order:
        if not net.preset[t]:
            raise ModelError(f"{name}: transition {t!r} has no input arc")
        if not net.postset[t]:
            raise ModelError(f"{name}: transition {t!r} has no output arc")
    return net


def load_model(path) -> PetriNet:
    """Read and parse a .net model file: UTF-8, a leading byte-order mark
    dropped."""
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file {p}: {exc}") from exc
    return parse_model(text, name=p.stem)


def bundled_model(name: str) -> PetriNet:
    """Load one of the models shipped with the package ("fn1" or "som")."""
    base = name[:-4] if name.endswith(".net") else name
    ref = resources.files(__package__) / "models" / f"{base}.net"
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ModelError(f"no bundled model named {name!r}") from exc
    return parse_model(text, name=base)
