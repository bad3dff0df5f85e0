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

The search is pruned with the exact cost-to-go h*(m, pos): the cheapest cost
of aligning the events from pos on, starting in marking m, to the final
marking. cost_to_go computes it for a chunk of traces at once, in one
backward pass over positions: h*(., n) is the model-only completion cost, and
h*(., pos) is the model-move closure of the cheaper of a log move on
sigma[pos] (c_log + h*(., pos + 1)) and a sync move on it. A push whose cost
plus the h* of its state exceeds h* of the start state lies on no optimal
alignment and is skipped. Every prefix of every optimal alignment passes that
test, the canonical one included, and the heap still pops in (cost,
tie-break) order, so pruning cannot change which alignment is returned. A
trace whose table would not fit _CHUNK_ELEMENTS is searched with a bound
that prunes nothing. petri.DEFAULT_STATE_CAP, read at call time, bounds the
markings of the graph and the expansions of the pruned search. A sync move,
free and first in the tie-break, is followed without a round trip through
the heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ModelError
from .eventlog import Trace
from . import petri
from .petri import PetriNet, reachability_graph

SKIP = ">>"
UNKNOWN = "UNKNOWN"

_SYNC, _SILENT, _MODEL, _LOG = 0, 1, 2, 3
_KIND_NAMES = {_SYNC: "sync", _SILENT: "silent", _MODEL: "model", _LOG: "log"}

INF = float("inf")
# Elements of each array and temporary of one chunk's cost-to-go pass, and so
# also the largest (markings x positions) table of a single trace and the
# largest (markings x markings) distance table of a net that is pruned.
_CHUNK_ELEMENTS = 1 << 16
# Relative slack of the pruning bound, far above the rounding error of a sum
# of move costs: it can keep a push the exact bound would skip, never the
# reverse.
_BOUND_SLACK = 1.0 + 1e-9


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


def _state_space(net: PetriNet):
    """(succ, final) of the net's reachability graph (see
    petri.reachability_graph); the initial marking is node 0. Raises
    AlignmentError when the graph is unbounded, over the cap, or does not
    reach the final marking."""
    try:
        graph = reachability_graph(net)
    except ModelError as exc:  # unbounded
        raise AlignmentError(f"{exc}; alignments need a bounded net") from exc
    if graph is None:
        raise AlignmentError(
            f"alignment state-space exhausted: net {net.name} has more than "
            f"{petri.DEFAULT_STATE_CAP} reachable markings")
    succ, _, final = graph
    if final is None:
        raise AlignmentError(
            f"net {net.name}: final marking unreachable from initial marking")
    return succ, final


def _completion_costs(net: PetriNet, costs: CostScheme):
    """Per reachable marking: cheapest model-only completion cost.

    Backward Dijkstra over the reachability graph. Markings that cannot reach
    the final marking cost inf.
    """
    cache_key = ("completion", costs.c_model, costs.c_silent)
    cached = net._caches.get(cache_key)
    if cached is not None:
        return cached
    succ, final = _state_space(net)
    preds: list[list[tuple[str, int]]] = [[] for _ in succ]
    for src, nexts in enumerate(succ):
        for t, dst in nexts:
            preds[dst].append((t, src))
    comp_cost = [INF] * len(succ)
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
                      *, h=None) -> Alignment:
    """Minimum-cost alignment of one trace against the net.

    Deterministic: among equal-cost alignments the move-kind/transition-id
    tie-break picks a unique sequence. Raises AlignmentError when the final
    marking is unreachable or the search expands more than
    petri.DEFAULT_STATE_CAP states. h is the trace's cost-to-go table as
    cost_to_go yields it; when None it is computed for this trace alone.
    """
    sigma = _events(trace)
    _, mf_idx = _state_space(net)
    if h is None:
        h = next(cost_to_go(net, [sigma], costs))
    sync_arcs, free_arcs = _arcs(net, costs)
    state_limit = petri.DEFAULT_STATE_CAP
    n_events = len(sigma)
    width = n_events + 1
    c_log = costs.c_log
    # A push is kept while g + h*(its state) <= bound. h*(m0, 0) is the
    # optimal cost; with no table, h and so bound read inf, and g + inf <=
    # inf keeps every push.
    bound = h[0] * _BOUND_SLACK

    # Heap entries: (g, path key, marking idx, pos). The path key is a str
    # with one character per move, whose code point is the move's rank in
    # (kind, transition id) order, so str comparison is the tie-break order,
    # prefixes included: equal-cost candidates pop in tie-break order and the
    # first settled goal is the canonical result. Its moves are rebuilt from
    # the key. A path is pushed at most once, so no two entries share a key.
    # A product state (m, pos) is the int m * width + pos, which also indexes h.
    #
    # The entry of a sync move would be the very next pop, so the loop takes
    # it without the heap. It costs nothing, and sync codes rank below every
    # other move's, so (g, key + its code) ranks below every entry pushed
    # while expanding key's state. Every older entry has a larger g, or a key
    # above key that does not extend it and so ranks above its extensions.
    log = _move_codes(net)[3]
    heap = [(0.0, "", 0, 0)]
    settled = set()
    expanded = 0
    while heap:
        g, key, m_idx, pos = heapq.heappop(heap)
        state = m_idx * width + pos
        if state in settled:
            continue
        while True:
            settled.add(state)
            if m_idx == mf_idx and pos == n_events:
                return Alignment(_moves(net, sigma, key), g)
            expanded += 1
            if expanded > state_limit:
                raise AlignmentError(
                    f"alignment state-space exhausted after {state_limit} expansions")
            for code, nxt, step in free_arcs[m_idx]:
                nstate = nxt * width + pos
                if g + step + h[nstate] <= bound and nstate not in settled:
                    heapq.heappush(heap, (g + step, key + code, nxt, pos))
            if pos == n_events:
                break
            if g + c_log + h[state + 1] <= bound and state + 1 not in settled:
                heapq.heappush(heap, (g + c_log, key + log, m_idx, pos + 1))
            arc = sync_arcs[m_idx].get(sigma[pos])
            if arc is None:
                break
            code, m_idx = arc
            state = m_idx * width + pos + 1
            if g + h[state] > bound or state in settled:
                break
            key += code
            pos += 1
    raise AlignmentError(f"no alignment found for trace against net {net.name}")


def _arcs(net: PetriNet, costs: CostScheme):
    """Per-marking move tables, cached on the net per cost scheme: (sync, free).

    sync[m] maps an activity to the (code, next marking) of its sync move in
    marking m; free[m] lists the (code, next marking, cost) of its silent and
    model moves. Codes are those of _move_codes. Moves into markings that
    cannot reach the final marking are left out, so the search never enters
    them.
    """
    cache_key = ("arcs", costs.c_model, costs.c_silent)
    arcs = net._caches.get(cache_key)
    if arcs is None:
        succ, _ = _state_space(net)
        comp_cost = _completion_costs(net, costs)
        _, sync_code, free_code, _ = _move_codes(net)
        labels = net.labels
        sync, free = [], []
        for nexts in succ:
            live = [(t, nxt) for t, nxt in nexts if comp_cost[nxt] != INF]
            sync.append({labels[t]: (sync_code[t], nxt)
                         for t, nxt in live if labels[t] is not None})
            free.append(tuple((free_code[t], nxt,
                               costs.c_silent if labels[t] is None else costs.c_model)
                              for t, nxt in live))
        arcs = net._caches[cache_key] = (sync, free)
    return arcs


class _Unbounded:
    """The cost-to-go table of a trace that gets none: inf everywhere."""

    def __getitem__(self, state):
        return INF


_NO_TABLE = _Unbounded()


def cost_to_go(net: PetriNet, sequences, costs: CostScheme = CostScheme()):
    """Yield the exact cost-to-go table of each event sequence, in order.

    For a sequence of n events the table h is a list with h[m * (n + 1) +
    pos] the cheapest cost of aligning events[pos:] from marking node m (of
    the reachability graph) to the final marking, inf when there is none.
    Sequences go in chunks, in order, and one backward pass computes a
    chunk's tables; each array of a pass holds at most _CHUNK_ELEMENTS
    elements. A sequence whose table alone would exceed that, or any
    sequence on a net whose markings² exceed it, gets a table that reads inf
    everywhere, which makes optimal_alignment prune nothing.
    """
    n_nodes = len(_completion_costs(net, costs))
    tables = None
    if n_nodes * n_nodes <= _CHUNK_ELEMENTS:
        tables = _distance_tables(net, costs)
    chunk, longest = [], 0
    for sigma in map(_events, sequences):
        size = (len(sigma) + 1) * (n_nodes + 1)
        fits = tables is not None and size <= _CHUNK_ELEMENTS
        grown = len(chunk) + 1
        if chunk and (not fits or max(longest, size) * grown > _CHUNK_ELEMENTS
                      or n_nodes * n_nodes * grown > _CHUNK_ELEMENTS):
            yield from _chunk_cost_to_go(tables, chunk, costs.c_log)
            chunk, longest = [], 0
        if fits:
            chunk.append(sigma)
            longest = max(longest, size)
        else:
            yield _NO_TABLE
    if chunk:
        yield from _chunk_cost_to_go(tables, chunk, costs.c_log)


def _distance_tables(net: PetriNet, costs: CostScheme):
    """(dist, sync_next, columns, comp_cost) of the cost-to-go pass, cached
    on the net per cost scheme, for N markings and A visible activities.

    dist is the (N, N) array of cheapest model-only runs between markings
    (Floyd-Warshall over the reachability graph). columns maps an activity
    to a column of the (N, A + 1) int32 array sync_next, whose entry is the
    marking a sync move on that activity leads to, or N where there is none;
    column A stands for every activity the net does not know. comp_cost is
    the completion cost as an array. int32 suffices: a pass indexes at most
    (N + 1) * B < 2 * _CHUNK_ELEMENTS entries of a slice.
    """
    cache_key = ("distances", costs.c_model, costs.c_silent)
    tables = net._caches.get(cache_key)
    if tables is None:
        succ, _ = _state_space(net)
        n_nodes = len(succ)
        columns = {act: i for i, act in enumerate(sorted(net.visible_labels))}
        sync_next = np.full((n_nodes, len(columns) + 1), n_nodes, dtype=np.int32)
        dist = np.full((n_nodes, n_nodes), INF)
        np.fill_diagonal(dist, 0.0)
        for src, nexts in enumerate(succ):
            for t, dst in nexts:
                act = net.labels[t]
                if act is not None:
                    sync_next[src, columns[act]] = dst
                step = costs.c_silent if act is None else costs.c_model
                dist[src, dst] = min(dist[src, dst], step)
        for k in range(n_nodes):
            np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
        comp_cost = np.array(_completion_costs(net, costs))
        tables = net._caches[cache_key] = (dist, sync_next, columns, comp_cost)
    return tables


def _chunk_cost_to_go(tables, chunk, c_log: float):
    """Yield the cost-to-go table of each sequence of the chunk.

    The sequences are right-aligned on a (positions, N + 1, B) array whose
    row N is inf, the target of missing sync moves; positions before a
    shorter sequence's start only pad and are never read.
    """
    dist, sync_next, columns, comp_cost = tables
    n_nodes = len(comp_cost)
    width = max(map(len, chunk)) + 1
    unknown = sync_next.shape[1] - 1
    events = np.full((width - 1, len(chunk)), unknown)
    for b, sigma in enumerate(chunk):
        events[width - 1 - len(sigma):, b] = [columns.get(a, unknown) for a in sigma]
    h = np.empty((width, n_nodes + 1, len(chunk)))
    h[:, n_nodes] = INF
    h[-1, :n_nodes] = comp_cost[:, None]
    # synced[:, pos] holds, per (marking, sequence), the flat index of its
    # sync successor into the (N + 1, B) slice after pos
    synced = sync_next[:, events]
    synced *= len(chunk)
    synced += np.arange(len(chunk))
    dist = dist[:, :, None]
    for pos in range(width - 2, -1, -1):
        after = h[pos + 1]
        step = np.minimum(after[:n_nodes] + c_log, after.take(synced[:, pos]))
        np.minimum.reduce(dist + step, axis=1, out=h[pos, :n_nodes])
    for b, sigma in enumerate(chunk):
        yield h[width - 1 - len(sigma):, :n_nodes, b].T.ravel().tolist()


def _move_codes(net: PetriNet):
    """The net's move alphabet, cached on the net: (moves, sync, free, log).

    moves lists every move in (kind, id) order: one sync move per visible
    transition, one silent or model move per transition and, last as _LOG is
    the largest kind, one log move with id None. A move's code is chr of its
    index, and moves[index] is that move decoded. Each net move is decoded
    once, into a Move shared by every alignment on the net: it compares equal
    to a fresh one, and its identity means nothing. The log move's entry is
    None, as each log Move carries its own event. sync and free map a
    transition id to the code of its sync move and of its silent or model
    move; log is the code of the log move.

    One log code serves every event: keys that share a prefix share the
    state after it, and a state has a single log move, so the event of a log
    move never decides a comparison between keys.
    """
    codes = net._caches.get("move_codes")
    if codes is None:
        ranked = sorted([(_SYNC, t) for t, label in net.labels.items() if label is not None]
                        + [(_SILENT if label is None else _MODEL, t)
                           for t, label in net.labels.items()]
                        + [(_LOG, None)])
        code = {move: chr(i) for i, move in enumerate(ranked)}
        moves = [Move(_KIND_NAMES[kind], net.labels[t], t) for kind, t in ranked[:-1]]
        sync = {t: code[_SYNC, t] for t, label in net.labels.items() if label is not None}
        free = {t: code[_SILENT if label is None else _MODEL, t]
                for t, label in net.labels.items()}
        codes = net._caches["move_codes"] = (moves + [None], sync, free, code[_LOG, None])
    return codes


def _moves(net: PetriNet, sigma, key: str) -> tuple[Move, ...]:
    """Moves of a path key, decoded through the net's move list. Sync and log
    moves consume the trace in order; a log move's activity is the event at
    its position. Every move but a log move is the net's shared instance
    (see _move_codes), so only log moves are built here."""
    moves, _, _, log = _move_codes(net)
    out = []
    pos = 0
    for code in key:
        if code == log:
            out.append(Move("log", sigma[pos], None))
            pos += 1
        else:
            move = moves[ord(code)]
            out.append(move)
            if move.kind == "sync":
                pos += 1
    return tuple(out)


def worst_case_cost(net: PetriNet, trace, costs: CostScheme = CostScheme()) -> float:
    """Reference cost of aligning nothing: every event as a log move plus the
    cheapest model-only run from the initial to the final marking."""
    return costs.c_log * len(_events(trace)) + _completion_costs(net, costs)[0]


def trace_fitness(net: PetriNet, trace, costs: CostScheme = CostScheme()) -> float:
    """1 - optimal cost / worst-case cost, in [0, 1]. 1 means perfect replay."""
    alignment = optimal_alignment(net, trace, costs)
    return fitness_from_cost(net, trace, alignment.cost, costs)


def fitness_from_cost(net: PetriNet, trace, cost: float,
                      costs: CostScheme = CostScheme()) -> float:
    return 1.0 - cost / worst_case_cost(net, trace, costs)


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
