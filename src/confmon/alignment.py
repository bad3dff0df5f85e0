"""Optimal alignments between traces and a labeled accepting Petri net.

An alignment is a sequence of moves that simultaneously replays the trace and
a firing sequence of the net from its initial to its final marking:

  sync    (a, t)   trace event a matched by firing transition t with label a
  log     (a, >>)  trace event a not mirrored by the model
  model   (>>, t)  visible transition t fired without a matching trace event
  silent  (>>, t)  silent transition t fired (never a misalignment)

Move costs come from a CostScheme; the optimal alignment minimizes total
cost. Costs are exact: a scheme derives one integer unit 1/D, D the least
common multiple of the denominators of its costs' decimal forms (0.7 is
7/10), and every cost, cost-to-go and path cost below is a whole number of
units; Alignment.cost is that number over D. Ties between equal-cost
alignments break by preferring synchronous, then silent, then visible model,
then log moves, then lexicographic transition id, which makes the returned
move sequence deterministic. Precisely: each product state of trace
position and reachable marking settles on the least (cost, tie-break)
extension by one move of a path settled before it, and the alignment
returned is the path the final state settles on.

The exact cost-to-go h*(m, pos) is the cheapest cost of aligning the events
from pos on, starting in marking m, to the final marking. cost_to_go computes
it for a chunk of traces at once, in one backward pass over positions:
h*(., n) is the model-only completion cost, and h*(., pos) the cheaper of a
log move on sigma[pos] (c_log + h*(., pos + 1)) and a model-only run to an
origin of sigma[pos], a marking where its transition is enabled, followed by
the sync move there. h*(., pos + 1) is closed under model moves, so the log
move needs no model moves before it. A move is tight when its cost plus the
h* of its target equals the h* of its source; the paths of tight moves from
the start state are exactly the prefixes of optimal alignments. The pass
allocates its arrays once, and each position takes the same five numpy
steps: gather the model-only costs to the origins of its events, gather the
h* after each origin's sync move and add it, put the log move's c_log +
h*(., pos + 1) beside them, and write h*(., pos) as one minimum over all
of them (see _backward_pass).

Every trace on a net with pass arrays gets a table and is aligned by a
depth-first walk over tight moves in tie-break order, which settles each
state on the same path as the uniform-cost search would. A sync move costs
nothing, so it is tight when its target's h* equals its source's. The walk
can only reach a dead end, a state whose tight moves all lead to states
it has passed, through a zero-cost cycle of silent moves. The walk holds
its state as the position, the table index of the position's first state
and the marking, and reads the table at their sum. Such a trace, and
every trace on a net too large for the pass, is aligned by an unpruned
uniform-cost (Dijkstra) search on a heap, which follows a sync move, free
and first in the tie-break, without a round trip through the heap.

A table is a read-only buffer of float64, whole numbers of units, one per
(position, marking), so a state takes 8 bytes. Two byte caps bound a chunk:
_TABLE_BYTES (768 KiB) its tables, _LANE_BYTES (1 MiB) its pass's
candidates, the per-lane gather of origin columns and the log move. A net
whose origin table exceeds _LANE_BYTES gets no pass arrays. A trace whose
table alone exceeds _TABLE_BYTES gets a chunk of its own.
petri.DEFAULT_STATE_CAP, read at call time, bounds the markings of the graph,
the states of a table of its own, the states the walk passes and the
expansions of the search.

What the walk, the search and the pass read of a net under a cost scheme
comes from one builder, _tables, built at once from the reachability graph:
the final marking's node, the completion costs, the per-marking move tables
and the pass's arrays (or None for a net too large for them). It checks the
graph once and caches its record on the net per (c_model, c_silent) in
units. The move alphabet (_move_codes) is cached apart: it does not depend
on costs.

optimal_alignment returns an Alignment that holds the path key (one
character per move) and its cost; its moves are decoded from the key when
first read, and cached. count_from_keys counts the misalignments of many
keys in numpy passes, so a caller that only counts never builds Move objects.
align_variants aligns many distinct sequences at once and returns only
numbers: their counters, fitness and move counts. It alone knows the order
the pass takes them in, how long a chunk's tables live, the path keys and
the fitness rule's float operations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, repeat

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
# Bytes of one chunk's cost-to-go tables taken together, 8 bytes per
# (position, marking) state. A trace whose table alone exceeds it gets a
# chunk of its own.
_TABLE_BYTES = 3 << 18
# Bytes per chunk of the pass's (J + 1, N, B) float64 candidates, the gather
# of origin columns and the log move, (J + 1) x N x 8 a lane. A net whose
# (J, N, A + 1) origin table exceeds it gets no tables.
_LANE_BYTES = 1 << 20
# The largest cost unit denominator D, and the largest cost in units. A
# table holds at most 98 304 < 2^17 states in a shared chunk and at most
# petri.DEFAULT_STATE_CAP in a chunk of its own, 10^6 < 2^20 at the default
# cap, so a trace with one has fewer than 2^20 events, on a net of at most
# 2^17 markings (its origin table, at least 8 x N bytes, fits _LANE_BYTES).
# A model-only run between markings visits each at most once, so a distance
# is at most 2^17 x 2^32 units, and a finite cost-to-go at most (events +
# markings) x 2^32. Each sum the pass forms, a distance plus a cost-to-go or
# c_log plus one, is then below (2^20 + 2^18 + 1) x 2^32 < 2^53, which
# float64 holds exactly. The search adds Python ints.
_MAX_UNITS = 1 << 32
# Keys per numpy pass of count_from_keys.
_COUNT_BLOCK = 1024

_set = object.__setattr__


def _decimal_ratio(value) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of the decimal that the float
    value prints as: 0.7 gives (7, 10), 1e-05 (1, 100000), 2.5e+20 (25 *
    10^19, 1)."""
    mantissa, _, exponent = repr(float(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    num, shift = int(whole + fraction), int(exponent or 0) - len(fraction)
    if shift >= 0:
        return num * 10 ** shift, 1
    den = 10 ** -shift
    common = math.gcd(num, den)
    return num // common, den // common


@dataclass(frozen=True)
class CostScheme:
    """The costs of log, model and silent moves. Synchronous moves are free
    by definition, so the scheme has no cost for them; silent moves default
    to free so only genuine mismatches cost anything.

    Each cost is read as the decimal it prints as (repr), so 0.7 is 7/10.
    The scheme's unit is 1/D, D the least common multiple of the three
    costs' denominators; D and each cost in units must stay at most
    _MAX_UNITS (2^32), or an AlignmentError names the cost. _units holds
    (D, c_log, c_model, c_silent), the costs in units.
    """

    c_log: float = 1.0
    c_model: float = 1.0
    c_silent: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c_log", "c_model", "c_silent"):
            if not math.isfinite(getattr(self, name)):
                raise AlignmentError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c_log <= 0 or self.c_model <= 0:
            raise AlignmentError("c_log and c_model must be positive")
        if self.c_silent < 0:
            raise AlignmentError("c_silent must be >= 0")
        names = ("c_log", "c_model", "c_silent")
        exact = [_decimal_ratio(getattr(self, name)) for name in names]
        unit = 1
        for name, (_, den) in zip(names, exact):
            unit = math.lcm(unit, den)
            if unit > _MAX_UNITS:
                raise AlignmentError(
                    f"{name} = {getattr(self, name)!r} needs a cost unit finer than "
                    f"1/{_MAX_UNITS}; round the costs to fewer decimals")
        units = [num * (unit // den) for num, den in exact]
        for name, value in zip(names, units):
            if value > _MAX_UNITS:
                raise AlignmentError(
                    f"{name} = {getattr(self, name)!r} is more than {_MAX_UNITS} units "
                    f"of 1/{unit}; narrow the ratio between the costs")
        _set(self, "_units", (unit, *units))


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


class Alignment:
    """An alignment: its moves and their total cost.

    optimal_alignment returns one that holds the search's path key, one
    character per move (see _move_codes), and decodes moves from the key
    when they are first read; the decoded tuple is cached. Alignment(moves,
    cost) holds decoded moves and no key. Either way it compares, hashes and
    prints by (moves, cost), and rejects attribute assignment, like a frozen
    dataclass.
    """

    __slots__ = ("_moves", "cost", "key", "_source")

    def __init__(self, moves: tuple[Move, ...], cost: float):
        _set(self, "_moves", moves)
        _set(self, "cost", cost)
        _set(self, "key", None)
        _set(self, "_source", None)

    @classmethod
    def _from_key(cls, key: str, cost: float, net: PetriNet, sigma) -> Alignment:
        self = object.__new__(cls)
        _set(self, "_moves", None)
        _set(self, "cost", cost)
        _set(self, "key", key)
        _set(self, "_source", (net, sigma))
        return self

    @property
    def moves(self) -> tuple[Move, ...]:
        moves = self._moves
        if moves is None:
            moves = _moves(*self._source, self.key)
            _set(self, "_moves", moves)
        return moves

    def __len__(self) -> int:
        return len(self.moves if self.key is None else self.key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.moves, self.cost) == (other.moves, other.cost)

    def __hash__(self) -> int:
        return hash((self.moves, self.cost))

    def __repr__(self) -> str:
        return f"Alignment(moves={self.moves!r}, cost={self.cost!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Alignment, (self.moves, self.cost)

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


def _tables(net: PetriNet, costs: CostScheme):
    """Everything the walk, the search and the cost-to-go pass read of the
    net under a cost scheme, built at once from its reachability graph and
    cached on the net per (c_model, c_silent) in units: (final, comp_cost,
    sync, free, tables). Every cost in it is in the scheme's units.

    The graph (see petri.reachability_graph; the initial marking is node 0)
    is checked once per record: AlignmentError when it is unbounded, over
    the cap, or does not reach the final marking, whose node is final.

    comp_cost lists per marking the cheapest model-only completion cost, an
    int, by backward Dijkstra (_costs_to); markings that cannot reach the
    final marking cost inf.

    sync[m] maps an activity to the (code, next marking) of its sync move in
    marking m; free[m] lists the (code, next marking, cost) of its silent and
    model moves, in code order. Codes are those of _move_codes. Moves into
    markings that cannot reach the final marking are left out, so neither
    the walk nor the search enters them.

    tables is (dist, successors, columns, comp_cost) of the cost-to-go
    pass, for N markings and A visible activities, or None when the origin
    table dist, J * N * (A + 1) * 8 bytes, exceeds _LANE_BYTES. columns maps
    an activity to a column; column A stands for every activity the net
    does not know. The origins of activity a are the markings its
    transition is enabled in, in node order, and J is the most of any
    activity, at least 1. dist[j, m, a] is the cheapest model-only run from
    m to a's origin j (backward Dijkstra to it), and successors[j, a] the
    marking a's sync move leads to from there; past a's origins, and in
    column A, dist is inf and successors N. comp_cost is here a float64
    array.
    """
    _, c_model, c_silent = costs._units[1:]
    # the lane cap decides whether the pass's arrays are built, so it is part
    # of the key: a record never outlives the cap it was built under
    cache_key = ("tables", c_model, c_silent, _LANE_BYTES)
    record = net._caches.get(cache_key)
    if record is not None:
        return record
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
    labels = net.labels
    n_nodes = len(succ)
    step = {t: c_silent if label is None else c_model for t, label in labels.items()}
    columns = {act: i for i, act in enumerate(sorted(net.visible_labels))}
    # preds[m] lists the (cost, source) of the moves into marking m, and
    # origins[a] the (marking, successor) pairs of activity a's sync moves
    preds: list[list[tuple[int, int]]] = [[] for _ in succ]
    origins: list[list[tuple[int, int]]] = [[] for _ in columns]
    for src, nexts in enumerate(succ):
        for t, dst in nexts:
            preds[dst].append((step[t], src))
            if labels[t] is not None:
                origins[columns[labels[t]]].append((src, dst))
    comp_cost = _costs_to(final, preds)

    tables = None
    depth = max(map(len, origins), default=0) or 1
    if depth * n_nodes * (len(columns) + 1) * 8 <= _LANE_BYTES:
        dist = np.full((depth, n_nodes, len(columns) + 1), INF)
        successors = np.full((depth, len(columns) + 1), n_nodes, dtype=np.intp)
        for a, pairs in enumerate(origins):
            for j, (k, nxt) in enumerate(pairs):
                dist[j, :, a] = _costs_to(k, preds)
                successors[j, a] = nxt
        tables = (dist, successors, columns, np.array(comp_cost, dtype=float))

    _, sync_code, free_code, _ = _move_codes(net)
    sync, free = [], []
    for nexts in succ:
        live = [(t, nxt) for t, nxt in nexts if comp_cost[nxt] != INF]
        sync.append({labels[t]: (sync_code[t], nxt)
                     for t, nxt in live if labels[t] is not None})
        free.append(tuple(sorted((free_code[t], nxt, step[t]) for t, nxt in live)))
    record = net._caches[cache_key] = (final, comp_cost, sync, free, tables)
    return record


def _costs_to(target: int, preds) -> list:
    """The cheapest cost of a model-only run from each marking to target, an
    int, by backward Dijkstra over preds (see _tables); inf where there is
    none."""
    costs = [INF] * len(preds)
    costs[target] = 0
    heap = [(0, target)]
    while heap:
        d, node = heapq.heappop(heap)
        if d == costs[node]:  # else a cheaper entry settled the node
            for w, prev in preds[node]:
                if d + w < costs[prev]:
                    costs[prev] = d + w
                    heapq.heappush(heap, (d + w, prev))
    return costs


# the table argument's default: compute the trace's table
_COMPUTE = object()


def optimal_alignment(net: PetriNet, trace, costs: CostScheme = CostScheme(),
                      *, table=_COMPUTE) -> Alignment:
    """Minimum-cost alignment of one trace against the net.

    Deterministic: among equal-cost alignments the move-kind/transition-id
    tie-break picks a unique sequence. Raises AlignmentError when the final
    marking is unreachable, when the trace's table would hold more than
    petri.DEFAULT_STATE_CAP states, or when the walk passes or the search
    expands more than that many. table is the trace's entry of cost_to_go:
    a float64 memoryview, which the walk reads, or None, which makes the
    heap search align the trace; when omitted it is computed for this trace
    alone. A trace the walk finds a dead end on goes to the heap search too.
    """
    sigma = _events(trace)
    record = _tables(net, costs)
    if table is _COMPUTE:
        table = next(cost_to_go(net, [sigma], costs))
    unit, c_log = costs._units[:2]
    log = _move_codes(net)[3]
    key = None if table is None else _walk(sigma, table, record, c_log, log)
    if key is None:
        key, cost = _search(sigma, record, c_log, log)
    else:
        cost = table[0]
    return Alignment._from_key(key, cost / unit, net, sigma)


def _exhausted(limit: int) -> AlignmentError:
    return AlignmentError(f"alignment state-space exhausted after {limit} expansions")


def _walk(sigma, h, record, c_log: int, log: str) -> str | None:
    """The path key of the trace's canonical optimal alignment, by a
    depth-first walk over tight moves in code order (sync, then free moves
    by code, then log), or None at a dead end.

    The walk follows one tight move per state. A free move into a state it
    has passed closes a zero-cost cycle; a sync or log move leaves the
    position, so it closes none. When every tight move of a state closes
    one, the state is a dead end. Otherwise the walk passes each state on
    the path the uniform-cost search would settle it on; see the module
    docstring. The walk keeps the state as its position pos, the index base
    = pos * stride of the position's first state, and the marking m; the
    state is base + m.
    """
    final, _, sync_arcs, free_arcs = record[:4]
    stride = len(free_arcs) + 1
    n_events = len(sigma)
    limit = petri.DEFAULT_STATE_CAP
    passed = 0
    key = ""
    pos = base = m = 0
    path = set()
    while pos < n_events or m != final:
        passed += 1
        if passed > limit:
            raise _exhausted(limit)
        here = h[base + m]
        if pos < n_events:
            arc = sync_arcs[m].get(sigma[pos])
            if arc is not None and h[base + stride + arc[1]] == here:
                code, m = arc
                key += code
                pos += 1
                base += stride
                continue
        path.add(base + m)
        for code, nxt, step in free_arcs[m]:
            if step + h[base + nxt] == here and base + nxt not in path:
                m = nxt
                break
        else:
            if pos == n_events or c_log + h[base + stride + m] != here:
                return None
            code = log
            pos += 1
            base += stride
        key += code
    return key


def _search(sigma, record, c_log: int, log: str) -> tuple[str, int]:
    """(path key, cost in units) of the trace's canonical optimal alignment
    by uniform-cost search without pruning, for a trace without a table or
    one the walk found a dead end on."""
    final, _, sync_arcs, free_arcs = record[:4]
    limit = petri.DEFAULT_STATE_CAP
    n_events = len(sigma)
    width = n_events + 1
    # Heap entries: (g, path key, marking idx, pos). The path key is a str
    # with one character per move, whose code point is the move's rank in
    # (kind, transition id) order, so str comparison is the tie-break order,
    # prefixes included: equal-cost candidates pop in tie-break order and the
    # first settled goal is the canonical result. A path is pushed at most
    # once, so no two entries share a key.
    # A product state (m, pos) is the int m * width + pos.
    #
    # The entry of a sync move would be the very next pop, so the loop takes
    # it without the heap. It costs nothing, and sync codes rank below every
    # other move's, so (g, key + its code) ranks below every entry pushed
    # while expanding key's state. Every older entry has a larger g, or a key
    # above key that does not extend it and so ranks above its extensions.
    heap = [(0, "", 0, 0)]
    settled = set()
    expanded = 0
    while heap:
        g, key, m_idx, pos = heapq.heappop(heap)
        state = m_idx * width + pos
        if state in settled:
            continue
        while True:
            settled.add(state)
            if m_idx == final and pos == n_events:
                return key, g
            expanded += 1
            if expanded > limit:
                raise _exhausted(limit)
            for code, nxt, step in free_arcs[m_idx]:
                if nxt * width + pos not in settled:
                    heapq.heappush(heap, (g + step, key + code, nxt, pos))
            if pos == n_events:
                break
            if state + 1 not in settled:
                heapq.heappush(heap, (g + c_log, key + log, m_idx, pos + 1))
            arc = sync_arcs[m_idx].get(sigma[pos])
            if arc is None:
                break
            code, m_idx = arc
            state = m_idx * width + pos + 1
            if state in settled:
                break
            key += code
            pos += 1
    raise AlignmentError("no alignment found for the trace")


def cost_to_go(net: PetriNet, sequences, costs: CostScheme = CostScheme()):
    """Yield the cost-to-go table of each event sequence, in order: a
    read-only memoryview h, or None for every sequence on a net without pass
    arrays (see _tables).

    For a sequence of n events on a net of N markings, h is indexed by
    state, pos * (N + 1) + m for position pos and marking node m < N (of the
    reachability graph); the entries with m = N pad, inf. h is a buffer of
    float64 ('d'); h[state] is a Python float, a whole number of the
    scheme's units: the cheapest cost of aligning events[pos:] from m to the
    final marking, inf when there is none.

    Sequences go in chunks, in order, and one backward pass computes a
    chunk's tables. A chunk's (positions, N + 1, B) table holds at most
    _TABLE_BYTES, and its pass's (J + 1, N, B) candidates (see
    _backward_pass) at most _LANE_BYTES, for B sequences. A chunk takes
    sequences while both caps hold; align_variants passes them longest
    first, so that each chunk's first sequence fixes its width and the next
    ones fill the cap under it. A sequence whose table alone exceeds _TABLE_BYTES
    fits no chunk with another, so it gets a chunk of its own;
    AlignmentError, before any allocation, when that table would hold more
    than petri.DEFAULT_STATE_CAP states. A chunk's tables are slices of one
    array, freed once every one of them is released.
    """
    tables = _tables(net, costs)[4]
    if tables is None:
        for _ in sequences:
            yield None
        return
    c_log = costs._units[1]
    n_nodes = len(tables[3])
    stride = n_nodes + 1
    # the bytes of one lane of the pass's (J + 1, N, B) candidates
    lane = (len(tables[1]) + 1) * n_nodes * 8
    chunk, longest = [], 0
    for sigma in map(_events, sequences):
        states = (len(sigma) + 1) * stride
        size = states * 8
        if chunk and (max(longest, size) * (len(chunk) + 1) > _TABLE_BYTES
                      or lane * (len(chunk) + 1) > _LANE_BYTES):
            yield from _chunk_cost_to_go(tables, chunk, c_log)
            chunk, longest = [], 0
        if size > _TABLE_BYTES and states > petri.DEFAULT_STATE_CAP:
            raise AlignmentError(
                f"alignment state-space exhausted: a trace of {len(sigma)} events needs "
                f"{states} cost-to-go states, more than the cap of {petri.DEFAULT_STATE_CAP}")
        chunk.append(sigma)
        longest = max(longest, size)
    if chunk:
        yield from _chunk_cost_to_go(tables, chunk, c_log)


def _chunk_cost_to_go(tables, chunk, c_log: int):
    """Yield the table of each sequence of the chunk.

    A sequence's table is a strided view of its lane of the pass's array.
    The pass's temporaries are freed before the first table is yielded; the
    chunk's array lives until its tables and this generator are released.
    """
    n_seqs = len(chunk)
    h, starts = _backward_pass(tables, chunk, c_log)
    h = memoryview(h.reshape(-1)).toreadonly()
    for start in starts:
        yield h[start::n_seqs]


def _backward_pass(tables, chunk, c_log: int):
    """(h, starts) of a chunk: the (positions, N + 1, B) float64 table and
    the flat index of each sequence's first state, (pos 0, marking 0) in its
    lane.

    The sequences are right-aligned on the table, whose row N is the target
    of missing sync moves, inf; positions before a shorter sequence's start
    only pad and are never read. h(., pos + 1) is closed under model moves,
    so a log move on sigma[pos] gains nothing from model moves before it,
    and only a sync move needs the model-only runs to its origins:

      h[pos][m] = min(c_log + h[pos + 1][m],
                      min over origins k of a = sigma[pos] of
                          dist[m, k] + h[pos + 1][next_a(k)])

    The pass allocates its arrays once. Each position fills a (J + 1, N, B)
    candidates array: rows 0 to J - 1 take the origin columns of its events
    from dist and add the h after each origin's sync move, read from one
    row of successor indices; row J is the log move, c_log + h[pos + 1].
    One minimum over axis 0, on contiguous (N, B) planes, then writes
    h[pos]. A min and a sum of whole-number floats are exact, so no order
    of the terms changes a bit.
    """
    dist, successors, columns, comp_cost = tables
    n_nodes, n_seqs, depth = len(comp_cost), len(chunk), len(successors)
    stride = n_nodes + 1
    width = max(map(len, chunk)) + 1
    unknown = len(columns)
    lanes = np.arange(n_seqs)
    # cols[pos, b] is the column of sequence b's event at pos
    offsets = width - 1 - np.fromiter(map(len, chunk), dtype=np.intp, count=n_seqs)
    cols = np.full((width - 1, n_seqs), unknown)
    # a boolean mask fills the lanes one by one, each with its events
    # right-aligned
    cols.T[np.arange(width - 1) >= offsets[:, None]] = np.fromiter(
        map(columns.get, chain.from_iterable(chunk), repeat(unknown)), dtype=np.intp)
    # nexts[pos, j, 0, b] is the flat index into h of the state after the
    # sync move from origin j of sequence b's event at pos, at pos + 1; it
    # takes J / (N + 1) of the table's bytes
    nexts = successors[np.arange(depth)[:, None, None], cols[:, None, None, :]]
    nexts *= n_seqs
    nexts += (np.arange(1, width) * (stride * n_seqs))[:, None, None, None] + lanes
    h = np.empty((width, stride, n_seqs))
    h[:, n_nodes] = INF
    h[-1, :n_nodes] = comp_cost[:, None]
    flat, rows = h.reshape(-1), h[:, :n_nodes]
    candidates = np.empty((depth + 1, n_nodes, n_seqs))
    gathered, logged = candidates[:depth], candidates[depth]
    moved = np.empty((depth, 1, n_seqs))
    # every index is in range; mode="clip" only lets take write into out
    # without an intermediate buffer
    for pos in range(width - 2, -1, -1):
        dist.take(cols[pos], axis=2, out=gathered, mode="clip")
        flat.take(nexts[pos], out=moved, mode="clip")
        gathered += moved
        np.add(rows[pos + 1], c_log, out=logged)
        np.minimum.reduce(candidates, axis=0, out=rows[pos])
    return h, (offsets * stride * n_seqs + lanes).tolist()


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
    cheapest model-only run from the initial to the final marking, summed
    exactly in units, then divided by D, so rounded once."""
    unit, c_log = costs._units[:2]
    return (c_log * len(_events(trace)) + _tables(net, costs)[1][0]) / unit


def trace_fitness(net: PetriNet, trace, costs: CostScheme = CostScheme()) -> float:
    """1 - optimal cost / worst-case cost, in [0, 1]. 1 means perfect replay."""
    alignment = optimal_alignment(net, trace, costs)
    return fitness_from_cost(net, trace, alignment.cost, costs)


def fitness_from_cost(net: PetriNet, trace, cost: float,
                      costs: CostScheme = CostScheme()) -> float:
    """1 - cost / worst-case cost; 1.0 when the worst case costs nothing (an
    empty trace on a net that completes silently for free), whose optimal
    cost is then 0 too."""
    worst = worst_case_cost(net, trace, costs)
    return 1.0 - cost / worst if worst else 1.0


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


def count_from_keys(net: PetriNet, columns, keys, sequences) -> np.ndarray:
    """Misalignment counters of many alignments at once, from their path keys
    (Alignment.key) and event sequences, without decoding moves.

    columns lists the counter columns, UNKNOWN among them; the result is an
    int64 array with one row per key and one column per entry of columns,
    equal to misalignments of the decoded alignments. Every event is
    consumed by one sync or one log move, so the log moves on an activity
    are its events minus its sync moves: each event adds 1 on its activity's
    column (UNKNOWN for an activity outside columns), each sync move takes 1
    off its activity, and each visible model move adds 1 on its activity.
    """
    k = len(columns)
    column = {act: i for i, act in enumerate(columns)}
    unknown = column[UNKNOWN]
    # slot of each move code in a row of width 2k + 1: column c for +1 on c,
    # k + c for -1 on c, 2k for a move that counts nothing
    width = 2 * k + 1
    slot = np.array([2 * k if move is None or move.kind == "silent"
                     else column[move.activity] + (k if move.kind == "sync" else 0)
                     for move in _move_codes(net)[0]], dtype=np.intp)
    tally = np.zeros((len(keys), width), dtype=np.int64)
    # blocks of keys keep each temporary array to tens of kB, so counting
    # does not raise the peak memory of a process that diagnoses a large log
    for lo in range(0, len(keys), _COUNT_BLOCK):
        block_keys = keys[lo:lo + _COUNT_BLOCK]
        block_seqs = sequences[lo:lo + _COUNT_BLOCK]
        rows = np.arange(len(block_keys)) * width
        # surrogatepass: a net with 55 296 or more moves has codes in the
        # surrogate range, which a plain utf-32 encode rejects
        codes = np.frombuffer("".join(block_keys).encode("utf-32-le", "surrogatepass"),
                              dtype="<u4")
        moves = np.repeat(rows, list(map(len, block_keys))) + slot[codes]
        events = np.fromiter(map(column.get, chain.from_iterable(block_seqs), repeat(unknown)),
                             dtype=np.intp)
        events += np.repeat(rows, list(map(len, block_seqs)))
        part = tally[lo:lo + _COUNT_BLOCK].reshape(-1)
        part += np.bincount(moves, minlength=part.size)
        part += np.bincount(events, minlength=part.size)
    return tally[:, :k] - tally[:, k:2 * k]


def align_variants(net: PetriNet, sequences, columns, costs: CostScheme = CostScheme()):
    """(counts, fitness, moves) of the optimal alignments of a list of
    distinct event sequences, one entry per sequence in its order: the int64
    misalignment counters, one column per entry of columns (see
    count_from_keys); the fitness, the same float as fitness_from_cost; and
    the int64 number of moves.

    Each sequence goes through optimal_alignment with its cost_to_go table.
    The pass takes the sequences longest first. It costs about the same per
    position whatever its width in lanes, and a chunk's width is that of
    its longest sequence; taken longest first, each chunk's first sequence
    fixes its width and the next-longest fill the byte cap under it, while
    shortest first would leave a last chunk of a few of the longest
    sequences at full width. No result depends on the order. The counters
    come from the path keys, without decoding moves.
    """
    # sorted is stable, so sequences of one length keep their order
    order = sorted(range(len(sequences)), key=lambda i: len(sequences[i]), reverse=True)
    keys = [""] * len(sequences)
    cost = np.empty(len(sequences))
    # next() hands each table straight to the search, so no name holds a
    # chunk's last table, and with it the chunk's array, while the next
    # chunk's pass runs
    tables = cost_to_go(net, [sequences[i] for i in order], costs)
    for i in order:
        alignment = optimal_alignment(net, sequences[i], costs, table=next(tables))
        keys[i] = alignment.key
        cost[i] = alignment.cost
    # the suspended generator still holds the last chunk's array
    del tables
    # fitness_from_cost's float operations, so the same bits: the int64
    # units of the worst case are exact in float64 (see _MAX_UNITS), and a
    # worst case of 0 gives 1.0
    unit, c_log = costs._units[:2]
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    worst = (c_log * lengths + _tables(net, costs)[1][0]) / unit
    fitness = 1.0 - np.divide(cost, worst, out=np.zeros_like(cost), where=worst != 0)
    moves = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    return count_from_keys(net, columns, keys, sequences), fitness, moves
