"""Optimal alignments between traces and a labeled accepting Petri net.

An alignment is a sequence of moves that simultaneously replays the trace and
a firing sequence of the net from its initial to its final marking:

  sync    (a, t)   trace event a matched by firing transition t with label a
  log     (a, >>)  trace event a not mirrored by the model
  model   (>>, t)  visible transition t fired without a matching trace event
  silent  (>>, t)  silent transition t fired (never a misalignment)

Move costs come from a CostScheme; the optimal alignment minimizes total
cost. The search is uniform-cost (Dijkstra) over the synchronous product of
trace positions and reachable markings. Ties between equal-cost alignments
break by preferring synchronous, then silent, then visible model, then log
moves, then lexicographic transition id, which makes the returned move
sequence deterministic. Entries of one product state pop in (cost,
tie-break) order, so each state settles on its minimum (cost, tie-break) path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import AlignmentError, ModelError
from .eventlog import Trace
from .petri import DEFAULT_STATE_CAP, PetriNet, reachability_graph

SKIP = ">>"
UNKNOWN = "UNKNOWN"

_SYNC, _SILENT, _MODEL, _LOG = 0, 1, 2, 3
_KIND_NAMES = {_SYNC: "sync", _SILENT: "silent", _MODEL: "model", _LOG: "log"}


@dataclass(frozen=True)
class CostScheme:
    """Move costs. Synchronous moves are free by definition; silent moves
    default to free so only genuine mismatches cost anything."""

    c_log: float = 1.0
    c_model: float = 1.0
    c_silent: float = 0.0
    c_sync: float = 0.0

    def __post_init__(self) -> None:
        if self.c_log <= 0 or self.c_model <= 0:
            raise AlignmentError("c_log and c_model must be positive")
        if self.c_silent < 0:
            raise AlignmentError("c_silent must be >= 0")
        if self.c_sync != 0:
            raise AlignmentError("c_sync must be 0")


@dataclass(frozen=True)
class Move:
    """One alignment move.

    kind is "sync", "log", "model", or "silent". activity is the trace event
    for sync/log moves and the transition label for visible model moves;
    transition is the fired transition id (None for log moves).
    """

    kind: str
    activity: str | None
    transition: str | None

    @property
    def log_part(self) -> str:
        return self.activity if self.kind in ("sync", "log") else SKIP

    @property
    def model_part(self) -> str:
        if self.kind == "log":
            return SKIP
        if self.kind == "silent":
            return "tau"
        return self.activity

    def __str__(self) -> str:
        return f"({self.log_part},{self.model_part})"


@dataclass(frozen=True)
class Alignment:
    moves: tuple[Move, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.moves)

    def render(self) -> str:
        """Two-row picture: trace on top, model below."""
        top = [m.log_part for m in self.moves]
        bottom = [m.model_part for m in self.moves]
        widths = [max(len(a), len(b)) for a, b in zip(top, bottom)]
        row1 = " | ".join(a.ljust(w) for a, w in zip(top, widths))
        row2 = " | ".join(b.ljust(w) for b, w in zip(bottom, widths))
        return row1 + "\n" + row2


def _events(trace) -> tuple[str, ...]:
    if isinstance(trace, Trace):
        return trace.events
    return tuple(trace)


def _state_space(net: PetriNet, state_cap: int):
    """The net's reachability graph (see petri.reachability_graph) as
    (succ, start, final): the nodes of the initial and the final marking,
    final None when it is unreachable. Both are cached next to the graph."""
    try:
        graph = reachability_graph(net, state_cap)
    except ModelError as exc:  # unbounded
        raise AlignmentError(f"{exc}; alignments need a bounded net") from exc
    if graph is None:
        raise AlignmentError(
            f"alignment state-space exhausted: net {net.name} has more than "
            f"{state_cap} reachable markings")
    index, succ, _ = graph
    ends = net._caches.get("ends")
    if ends is None:
        ends = net._caches["ends"] = (index[net._to_key(net.initial_marking)],
                                      index.get(net._to_key(net.final_marking)))
    return (succ, *ends)


def _completion_costs(net: PetriNet, costs: CostScheme, state_cap: int):
    """Per reachable marking: cheapest model-only completion cost.

    Backward Dijkstra over the reachability graph. Markings that cannot reach
    the final marking cost inf.
    """
    cache_key = ("completion", costs.c_model, costs.c_silent)
    cached = net._caches.get(cache_key)
    if cached is not None:
        return cached
    succ, _, final = _state_space(net, state_cap)
    preds: list[list[tuple[str, int]]] = [[] for _ in succ]
    for src, nexts in enumerate(succ):
        for t, dst in nexts:
            preds[dst].append((t, src))
    comp_cost = [float("inf")] * len(succ)
    if final is not None:
        comp_cost[final] = 0.0
        heap = [(0.0, final)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > comp_cost[node]:
                continue
            for t, prev in preds[node]:
                w = costs.c_silent if net.labels[t] is None else costs.c_model
                if d + w < comp_cost[prev]:
                    comp_cost[prev] = d + w
                    heapq.heappush(heap, (d + w, prev))
    net._caches[cache_key] = comp_cost
    return comp_cost


def optimal_alignment(net: PetriNet, trace, costs: CostScheme = CostScheme(),
                      state_cap: int = DEFAULT_STATE_CAP) -> Alignment:
    """Minimum-cost alignment of one trace against the net.

    Deterministic: among equal-cost alignments the move-kind/transition-id
    tie-break picks a unique sequence. Raises AlignmentError when the final
    marking is unreachable or the search exceeds state_cap expanded states.
    """
    sigma = _events(trace)
    succ, m0_idx, mf_idx = _state_space(net, state_cap)
    comp_cost = _completion_costs(net, costs, state_cap)
    INF = float("inf")
    if comp_cost[m0_idx] == INF:
        raise AlignmentError(
            f"net {net.name}: final marking unreachable from initial marking")
    n_events = len(sigma)
    width = n_events + 1
    labels = net.labels
    c_log, c_model, c_silent = costs.c_log, costs.c_model, costs.c_silent

    # Heap entries: (g, path key, marking idx, pos). The path key is a str
    # with one character per move, whose code point is the move's rank in
    # (kind, transition id) order, so str comparison is the tie-break order,
    # prefixes included: equal-cost candidates pop in tie-break order and the
    # first settled goal is the canonical result. Its moves are rebuilt from
    # the key. A path is pushed at most once, so no two entries share a key.
    # Markings that cannot reach the final marking are never pushed.
    _, sync, free, log = _move_codes(net)
    heap = [(0.0, "", m0_idx, 0)]
    settled = set()
    expanded = 0
    while heap:
        g, key, m_idx, pos = heapq.heappop(heap)
        state = m_idx * width + pos
        if state in settled:
            continue
        settled.add(state)
        if m_idx == mf_idx and pos == n_events:
            return Alignment(_moves(net, sigma, key), g)
        expanded += 1
        if expanded > state_cap:
            raise AlignmentError(
                f"alignment state-space exhausted after {state_cap} expansions")
        if pos < n_events:
            act = sigma[pos]
            for t, nxt in succ[m_idx]:
                if (labels[t] == act and nxt * width + pos + 1 not in settled
                        and comp_cost[nxt] != INF):
                    heapq.heappush(heap, (g, key + sync[t], nxt, pos + 1))
            if state + 1 not in settled:
                heapq.heappush(heap, (g + c_log, key + log, m_idx, pos + 1))
        for t, nxt in succ[m_idx]:
            if nxt * width + pos in settled or comp_cost[nxt] == INF:
                continue
            step = c_silent if labels[t] is None else c_model
            heapq.heappush(heap, (g + step, key + free[t], nxt, pos))
    raise AlignmentError(f"no alignment found for trace against net {net.name}")


def _move_codes(net: PetriNet):
    """The net's move alphabet, cached on the net: (moves, sync, free, log).

    moves lists every move in (kind, id) order: one sync move per visible
    transition, one silent or model move per transition and, last as _LOG is
    the largest kind, one log move with id None. A move's code is chr of its
    index. sync and free map a transition id to the code of its sync move and
    of its silent or model move; log is the code of the log move.

    One log code serves every event: keys that share a prefix share the
    state after it, and a state has a single log move, so the event of a log
    move never decides a comparison between keys.
    """
    codes = net._caches.get("move_codes")
    if codes is None:
        moves = sorted([(_SYNC, t) for t, label in net.labels.items() if label is not None]
                       + [(_SILENT if label is None else _MODEL, t)
                          for t, label in net.labels.items()]
                       + [(_LOG, None)])
        code = {move: chr(i) for i, move in enumerate(moves)}
        sync = {t: code[_SYNC, t] for t, label in net.labels.items() if label is not None}
        free = {t: code[_SILENT if label is None else _MODEL, t]
                for t, label in net.labels.items()}
        codes = net._caches["move_codes"] = (moves, sync, free, code[_LOG, None])
    return codes


def _moves(net: PetriNet, sigma, key: str) -> tuple[Move, ...]:
    """Moves of a path key, decoded through the net's move list. Sync and log
    moves consume the trace in order; a log move's activity is the event at
    its position."""
    moves = _move_codes(net)[0]
    out = []
    pos = 0
    for code in key:
        kind, t = moves[ord(code)]
        if kind == _LOG:
            out.append(Move("log", sigma[pos], None))
        else:
            out.append(Move(_KIND_NAMES[kind], net.labels[t], t))
        if kind == _SYNC or kind == _LOG:
            pos += 1
    return tuple(out)


def worst_case_cost(net: PetriNet, trace, costs: CostScheme = CostScheme(),
                    state_cap: int = DEFAULT_STATE_CAP) -> float:
    """Reference cost of aligning nothing: every event as a log move plus the
    cheapest model-only run from the initial to the final marking."""
    sigma = _events(trace)
    _, m0_idx, _ = _state_space(net, state_cap)
    best = _completion_costs(net, costs, state_cap)[m0_idx]
    if best == float("inf"):
        raise AlignmentError(
            f"net {net.name}: final marking unreachable from initial marking")
    return costs.c_log * len(sigma) + best


def trace_fitness(net: PetriNet, trace, costs: CostScheme = CostScheme(),
                  state_cap: int = DEFAULT_STATE_CAP) -> float:
    """1 - optimal cost / worst-case cost, in [0, 1]. 1 means perfect replay."""
    alignment = optimal_alignment(net, trace, costs, state_cap)
    return fitness_from_cost(net, trace, alignment.cost, costs, state_cap)


def fitness_from_cost(net: PetriNet, trace, cost: float,
                      costs: CostScheme = CostScheme(),
                      state_cap: int = DEFAULT_STATE_CAP) -> float:
    worst = worst_case_cost(net, trace, costs, state_cap)
    return 1.0 - cost / worst


def misalignments(alignment: Alignment, labels) -> dict:
    """Count misaligned moves per activity.

    Log and visible model moves count against their activity; log moves whose
    activity is outside the given label set count under UNKNOWN. Synchronous
    and silent moves never count. Returns a dict over all labels plus UNKNOWN.
    """
    counts = {a: 0 for a in sorted(labels)}
    counts[UNKNOWN] = 0
    for mv in alignment.moves:
        if mv.kind == "log":
            if mv.activity in counts:
                counts[mv.activity] += 1
            else:
                counts[UNKNOWN] += 1
        elif mv.kind == "model":
            counts[mv.activity] += 1
    return counts
