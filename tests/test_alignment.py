from __future__ import annotations

import functools
import hashlib
import heapq
import pickle
import random
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmon.alignment
import confmon.petri
from confmon.alignment import (Alignment, CostScheme, Move, SKIP, cost_to_go,
                               count_from_keys, misalignments, optimal_alignment,
                               trace_fitness, worst_case_cost)
from confmon.diagnoses import build_diagnoses, coverage, log_fitness
from confmon.errors import AlignmentError, LogError
from confmon.eventlog import EventLog, Trace
from confmon.inject import build_eval_sets
from confmon.petri import (NoiseParams, PetriNet, bundled_model, check_soundness,
                           playout, reachability_graph)
from conftest import _NetBuilder, random_workflow_net
from oracle import (oracle_alignment_cost, oracle_chunk_cost_to_go, oracle_cost_to_go,
                    oracle_exact_alignment)

LOOP_TRACE = ("t1", "t2", "t4", "t5", "t3", "t4", "t5", "t6")


def noisy_fn1_loop(rng: random.Random, n_events: int) -> tuple:
    """A run of fn1 with about n_events events: t1, rounds of {t2|t3}
    interleaved with t4 then t5, then t6; each event is dropped, and each
    kept event duplicated in place, with probability 0.05."""
    events = ["t1"]
    for _ in range(max(1, (n_events - 2) // 3)):
        pair = [rng.choice(("t2", "t3")), "t4"]
        rng.shuffle(pair)
        events += pair + ["t5"]
    events.append("t6")
    out = []
    for ev in events:
        if rng.random() < 0.05:
            continue
        out.append(ev)
        if rng.random() < 0.05:
            out.append(ev)
    return tuple(out)


def move_digest(net, traces, costs=CostScheme()) -> str:
    """SHA-256 over (kind, activity, transition) of every move and the cost of
    each trace's optimal alignment."""
    h = hashlib.sha256()
    for trace in traces:
        a = optimal_alignment(net, trace, costs)
        h.update(repr(([(mv.kind, mv.activity, mv.transition) for mv in a.moves],
                       a.cost)).encode())
    return h.hexdigest()


def replay_model_projection(net, moves):
    """Fire the model-side transitions of an alignment from the initial
    marking; returns the marking they end in."""
    from confmon.petri import fire

    marking = dict(net.initial_marking)
    for mv in moves:
        if mv.transition is not None:
            marking = fire(net, marking, mv.transition)
    return marking


def test_perfect_trace_costs_nothing(fn1):
    a = optimal_alignment(fn1, LOOP_TRACE)
    assert a.cost == 0.0
    assert trace_fitness(fn1, LOOP_TRACE) == 1.0
    assert all(mv.kind in ("sync", "silent") for mv in a.moves)
    # one pass through the loop needs exactly one silent firing
    assert sum(1 for mv in a.moves if mv.kind == "silent") == 1


def test_empty_trace_costs_shortest_model_run(fn1):
    a = optimal_alignment(fn1, ())
    assert a.cost == 5.0
    assert trace_fitness(fn1, ()) == 0.0
    assert [(mv.kind, mv.transition) for mv in a.moves] == [
        ("model", "t1"), ("model", "t2"), ("model", "t4"),
        ("model", "t5"), ("model", "t6")]


def test_swapped_trace_frozen_alignment(fn1):
    trace = ("t1", "t5", "t2", "t4", "t6")
    a = optimal_alignment(fn1, trace)
    assert a.cost == 2.0
    assert trace_fitness(fn1, trace) == pytest.approx(0.8)
    # the early t5 becomes a log move, the mandatory one a model move
    assert [(mv.kind, mv.activity, mv.transition) for mv in a.moves] == [
        ("sync", "t1", "t1"), ("log", "t5", None), ("sync", "t2", "t2"),
        ("sync", "t4", "t4"), ("model", "t5", "t5"), ("sync", "t6", "t6")]
    counts = misalignments(a, fn1.visible_labels)
    assert counts["t5"] == 2
    assert sum(counts.values()) == 2


def test_worst_case_cost(fn1):
    assert worst_case_cost(fn1, ["t1"] * 8) == 13.0
    assert worst_case_cost(fn1, ()) == 5.0
    assert worst_case_cost(fn1, ["t1"] * 8, CostScheme(c_log=2.0)) == 21.0


def test_unknown_activity_counts_under_unknown(fn1):
    trace = ("t1", "x9", "t2", "t4", "t5", "t6")
    a = optimal_alignment(fn1, trace)
    assert a.cost == 1.0
    assert trace_fitness(fn1, trace) == pytest.approx(1.0 - 1.0 / 11.0)
    counts = misalignments(a, fn1.visible_labels)
    assert counts["UNKNOWN"] == 1
    assert sum(counts.values()) == 1


def test_silent_moves_never_count_as_misalignments(fn1):
    a = optimal_alignment(fn1, LOOP_TRACE)
    counts = misalignments(a, fn1.visible_labels)
    assert sum(counts.values()) == 0


def test_alignment_is_deterministic(fn1):
    trace = ("t1", "t5", "t2", "t4", "t6")
    assert optimal_alignment(fn1, trace) == optimal_alignment(fn1, trace)


def test_sync_moves_match_labels(fn1):
    rng = random.Random(13)
    alphabet = sorted(fn1.visible_labels) + ["x1"]
    for _ in range(30):
        trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
        a = optimal_alignment(fn1, trace)
        for mv in a.moves:
            if mv.kind == "sync":
                assert fn1.labels[mv.transition] == mv.activity


def test_projections_are_valid(fn1):
    """Log projection reproduces the trace; model projection replays from the
    initial to the final marking."""
    rng = random.Random(7)
    alphabet = sorted(fn1.visible_labels) + ["x1", "x2"]
    for _ in range(40):
        trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
        a = optimal_alignment(fn1, trace)
        log_side = tuple(mv.activity for mv in a.moves if mv.kind in ("sync", "log"))
        assert log_side == trace
        assert replay_model_projection(fn1, a.moves) == fn1.final_marking


def test_cost_matches_oracle_on_random_traces(fn1):
    rng = random.Random(111)
    alphabet = sorted(fn1.visible_labels) + ["x1", "x2"]
    for _ in range(50):
        trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
        assert optimal_alignment(fn1, trace).cost == oracle_alignment_cost(fn1, trace)


def test_cost_matches_oracle_with_custom_costs(fn1):
    costs = CostScheme(c_log=2.0, c_model=3.0, c_silent=0.5)
    rng = random.Random(222)
    alphabet = sorted(fn1.visible_labels) + ["x1"]
    for _ in range(25):
        trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 7)))
        got = optimal_alignment(fn1, trace, costs).cost
        want = oracle_alignment_cost(fn1, trace, c_log=2.0, c_model=3.0, c_silent=0.5)
        assert got == want


def test_cost_scheme_validation():
    with pytest.raises(AlignmentError, match="positive"):
        CostScheme(c_log=0.0)
    with pytest.raises(AlignmentError, match="c_silent"):
        CostScheme(c_silent=-1.0)


@pytest.mark.parametrize("field, value", [("c_log", float("nan")), ("c_model", float("inf")),
                                          ("c_silent", float("nan")), ("c_log", float("inf")),
                                          ("c_model", float("-inf"))])
def test_cost_scheme_rejects_non_finite_costs(field, value):
    """A nan or infinite cost is refused when the scheme is built, naming
    the cost, rather than failing the search later (nan c_log, inf c_model),
    returning an alignment (nan c_silent) or a nan fitness (inf c_log)."""
    with pytest.raises(AlignmentError, match=f"{field} must be finite"):
        CostScheme(**{field: value})


def test_state_cap_is_enforced(monkeypatch):
    """fn1 has 7 markings: under a cap of 3 its graph is refused and not
    cached, so the same net aligns once the cap is raised again."""
    net = bundled_model("fn1")
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(AlignmentError, match="more than 3 reachable markings"):
        optimal_alignment(net, LOOP_TRACE)
    with pytest.raises(AlignmentError, match="more than 3 reachable markings"):
        worst_case_cost(net, LOOP_TRACE)
    monkeypatch.undo()
    assert optimal_alignment(net, LOOP_TRACE).cost == 0.0


def test_state_cap_is_enforced_on_a_cached_graph(monkeypatch):
    """A graph built under the cap stays cached and is read whatever the cap
    is later, while the cap still bounds the expansions of every search."""
    net = bundled_model("fn1")
    optimal_alignment(net, LOOP_TRACE)  # caches the complete graph
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 3)
    assert check_soundness(net).markings_explored == 7
    with pytest.raises(AlignmentError, match="exhausted after 3 expansions"):
        optimal_alignment(net, LOOP_TRACE)


def test_expansion_cap_is_enforced(monkeypatch):
    """With the cap at fn1's 7 markings the graph fits, but aligning a trace
    of 16 events needs more than 7 expansions."""
    net = bundled_model("fn1")
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 7)
    assert optimal_alignment(net, ("t1", "t2", "t4", "t5", "t6")).cost == 0.0
    with pytest.raises(AlignmentError,
                       match="alignment state-space exhausted after 7 expansions"):
        optimal_alignment(net, LOOP_TRACE + LOOP_TRACE)


def test_soundness_and_alignment_share_one_graph(enabled_calls):
    net = bundled_model("fn1")
    check_soundness(net)
    assert len(enabled_calls) == 7  # one enabling test per reachable marking
    optimal_alignment(net, LOOP_TRACE)
    playout(net, 20)
    assert len(enabled_calls) == 7
    enabled_calls.clear()
    playout(bundled_model("fn1"), 20)
    assert len(enabled_calls) == 7  # a fresh net: one graph build, then walks over it


def test_unreachable_final_marking_is_an_error():
    net = PetriNet(["p1", "p2", "p3"], ["t1"], [("p1", "t1"), ("t1", "p2")],
                   {"p1": 1}, {"p3": 1}, {"t1": "a"})
    unreachable = "final marking unreachable from initial marking"
    with pytest.raises(AlignmentError, match=unreachable):
        optimal_alignment(net, ("a",))
    with pytest.raises(AlignmentError, match=unreachable):
        worst_case_cost(net, ("a",))
    with pytest.raises(AlignmentError, match=unreachable):
        trace_fitness(net, ("a",))
    with pytest.raises(AlignmentError, match=unreachable):
        next(cost_to_go(net, [("a",)]))
    with pytest.raises(AlignmentError, match=unreachable):
        build_diagnoses(net, EventLog([Trace("c1", ("a",))]))


def test_marking_nodes_are_looked_up_once_per_net(monkeypatch):
    net = bundled_model("fn1")
    optimal_alignment(net, LOOP_TRACE)
    calls = []
    to_key = PetriNet._to_key

    def counted(self, marking):
        calls.append(marking)
        return to_key(self, marking)

    monkeypatch.setattr(PetriNet, "_to_key", counted)
    for events in (LOOP_TRACE, ("t1", "t5"), ()):
        optimal_alignment(net, events)
        worst_case_cost(net, events, CostScheme(2.0, 3.0))
    assert calls == []


def test_net_tables_are_built_once_per_cost_scheme(monkeypatch):
    """Work guard without timing: alignments, a cost-to-go pass, a worst-case
    cost and a fitness on one net read its reachability graph once per cost
    scheme, when the net's record for that scheme is built. A scheme that
    differs only in c_log shares the record."""
    net = bundled_model("fn1")
    calls = []
    real = confmon.alignment.reachability_graph
    monkeypatch.setattr(confmon.alignment, "reachability_graph",
                        lambda net: calls.append(1) or real(net))

    def use(costs):
        for events in (LOOP_TRACE, ("t1", "t5"), ()):
            optimal_alignment(net, events, costs)
        list(cost_to_go(net, [LOOP_TRACE], costs))
        worst_case_cost(net, LOOP_TRACE, costs)
        trace_fitness(net, LOOP_TRACE, costs)

    use(CostScheme())
    assert len(calls) == 1
    use(CostScheme(2.0, 3.0))
    assert len(calls) == 2
    use(CostScheme(5.0))
    assert len(calls) == 2


def test_coverage_and_log_fitness_on_clean_playout(fn1):
    log = playout(fn1, 30, seed=9)
    assert coverage(fn1, log) == 1.0
    assert log_fitness(fn1, log) == 1.0


def test_coverage_counts_mismatched_share(fn1):
    log = EventLog([Trace("c1", LOOP_TRACE), Trace("c2", ("t1", "t5", "t2", "t4", "t6"))])
    # c1 aligns in 9 moves with 0 misalignments, c2 in 6 moves with 2
    assert coverage(fn1, log) == pytest.approx(1.0 - 2.0 / 15.0)


def test_empty_log_rejected(fn1):
    with pytest.raises(LogError):
        log_fitness(fn1, EventLog([]))
    with pytest.raises(LogError):
        coverage(fn1, EventLog([]))


def test_render_and_move_parts(fn1):
    a = optimal_alignment(fn1, ("t1", "x9", "t2", "t4", "t5", "t6"))
    picture = a.render()
    rows = picture.splitlines()
    assert len(rows) == 2
    assert "x9" in rows[0]
    assert SKIP in rows[1]
    log_move = next(mv for mv in a.moves if mv.kind == "log")
    assert log_move.log_part == "x9"
    assert log_move.model_part == SKIP
    assert str(log_move) == "(x9,>>)"


def test_lazy_alignment_behaves_like_a_decoded_one(fn1):
    """optimal_alignment returns an alignment that decodes its moves from
    the path key when first read; it equals, hashes, prints and renders like
    one built from decoded moves, and stays immutable."""
    trace = ("t1", "x9", "t2", "t4", "t5", "t6", "t5")
    fresh = lambda: optimal_alignment(fn1, trace)  # noqa: E731
    eager = Alignment(fresh().moves, fresh().cost)
    assert eager.key is None and len(fresh().key) == len(eager.moves)
    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    assert fresh().render() == eager.render()
    assert repr(fresh()) == repr(eager)
    assert len(fresh()) == len(eager) == len(eager.moves)
    lazy = fresh()
    assert len(lazy) == len(lazy.moves) and lazy.moves is lazy.moves
    assert pickle.loads(pickle.dumps(fresh())) == eager
    assert fresh() != Alignment(eager.moves, eager.cost + 1)
    assert fresh() != Alignment(eager.moves[:-1], eager.cost)
    assert len({fresh(), eager}) == 1
    for name in ("moves", "cost", "key", "_moves"):
        with pytest.raises(FrozenInstanceError):
            setattr(lazy, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(lazy, name)
    with pytest.raises(FrozenInstanceError):
        eager.cost = 0.0
    assert lazy == eager


def test_alignment_works_on_trace_objects(fn1):
    tr = Trace("c1", LOOP_TRACE)
    assert optimal_alignment(fn1, tr).cost == 0.0


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_random_net_costs_match_oracle(seed):
    net = random_workflow_net(seed, budget=5)
    rng = random.Random(seed)
    alphabet = sorted(net.visible_labels) + ["x1", "x2"]
    for _ in range(20):
        trace = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 7)))
        assert optimal_alignment(net, trace).cost == oracle_alignment_cost(net, trace)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fitness_bounds_property(data):
    """Alignment cost never exceeds the worst case, so fitness lands in [0, 1]."""
    from confmon.petri import bundled_model

    fn1 = bundled_model("fn1")
    alphabet = sorted(fn1.visible_labels) + ["x1", "x2"]
    trace = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=8)))
    cost = optimal_alignment(fn1, trace).cost
    worst = worst_case_cost(fn1, trace)
    assert 0.0 <= cost <= worst
    fit = trace_fitness(fn1, trace)
    assert 0.0 <= fit <= 1.0


# The digests below pin the canonical tie-break. They were recorded with the
# earlier search, whose path keys were tuples of (kind, id) pairs.

def test_long_traces_keep_pinned_moves(fn1, som):
    rng = random.Random(5)
    long = [noisy_fn1_loop(rng, 60 + 190 * i // 9) for i in range(10)]
    assert [len(tr) for tr in long] == [55, 82, 99, 124, 151, 164, 184, 202, 223, 249]
    assert move_digest(fn1, long) == (
        "16c882f036b83a33ac388fe7309725ebee0ce550e964fe4f2f5fc0d8630cc44a")
    assert move_digest(fn1, long, CostScheme(c_log=2.0, c_model=3.0, c_silent=0.5)) == (
        "670a4ee426f7d129c4b3e1cee2277a3c84ac25a690c55f9925543df74f5221df")
    log = playout(som, 200, seed=3, noise=NoiseParams(0.05, 0.05))
    assert move_digest(som, [tr.events for tr in log]) == (
        "79507f9a85c86df4e24a3936f5c11155e5798c8dd58ecc4b98535911abb15083")


def test_many_distinct_unknown_activities(fn1):
    """300 distinct activities unknown to the net, scattered over a noisy
    fn1 run: each is one log move, in trace order."""
    rng = random.Random(8)
    events = list(noisy_fn1_loop(rng, 120))
    unknown = [f"x{k:03d}" for k in range(300)]
    rng.shuffle(unknown)
    for act in unknown:
        events.insert(rng.randrange(len(events) + 1), act)
    trace = tuple(events)
    a = optimal_alignment(fn1, trace)
    assert a.cost == oracle_alignment_cost(fn1, trace) == 306.0
    assert [mv.activity for mv in a.moves if mv.kind == "log" and
            mv.activity not in fn1.visible_labels] == [ev for ev in trace if ev in unknown]
    assert tuple(mv.activity for mv in a.moves if mv.kind in ("sync", "log")) == trace
    assert move_digest(fn1, [trace]) == (
        "4f5bd7ff8fb7c8870602fed7d6639f545718ddf02fe80352f8643c94a902001d")


def wide_choice_net(n: int) -> PetriNet:
    """start, then a loop over a choice of n activities a000, a001, ...
    (silent transition back), then end."""
    acts = [f"a{k:03d}" for k in range(n)]
    arcs = [("source", "start"), ("start", "p"), ("q", "back"), ("back", "p"),
            ("q", "end"), ("end", "sink")]
    for act in acts:
        arcs += [("p", act), (act, "q")]
    labels = {"start": "start", "end": "end", "back": None, **{a: a for a in acts}}
    return PetriNet(["source", "p", "q", "sink"], list(labels), arcs,
                    {"source": 1}, {"sink": 1}, labels, name="wide")


def test_move_alphabet_wider_than_one_byte():
    """A net with 132 visible transitions has 266 sync, model, silent and log
    moves, so move codes pass 255; the tie-break still orders by id."""
    net = wide_choice_net(130)
    rng = random.Random(9)
    acts = sorted(net.visible_labels - {"start", "end"})
    traces = [(), ("start", "end"), ("start", "zz", "a129", "end", "a003")]
    for _ in range(20):
        events = ["start"] + [rng.choice(acts + ["zz", "yy"])
                              for _ in range(rng.randrange(0, 12))] + ["end"]
        if rng.random() < 0.3:
            events.pop(0)
        if rng.random() < 0.3:
            events.pop()
        traces.append(tuple(events))
    assert [(mv.kind, mv.transition) for mv in optimal_alignment(net, ()).moves] == [
        ("model", "start"), ("model", "a000"), ("model", "end")]
    assert [(mv.kind, mv.activity) for mv in optimal_alignment(net, traces[2]).moves] == [
        ("sync", "start"), ("log", "zz"), ("sync", "a129"), ("sync", "end"), ("log", "a003")]
    for trace in traces:
        assert optimal_alignment(net, trace).cost == oracle_alignment_cost(net, trace)
    assert move_digest(net, traces) == (
        "9026e9b09a17188b2274243c0da4034c599ac2599a12a654719c2fb74362829a")



def test_codes_in_the_surrogate_range_are_counted(monkeypatch):
    """Move codes from 55 296 on are UTF-16 surrogates, which a plain UTF-32
    encode rejects; a net with that many moves still gets its counters. The
    alphabet here is a stand-in: a sync move on a, model moves on b up to
    code 57 400, then the log move."""
    moves = [Move("sync", "a", "ta")] + [Move("model", "b", "tb")] * 57_400 + [None]
    monkeypatch.setattr(confmon.alignment, "_move_codes", lambda net: (moves, {}, {}, "?"))
    keys = ["\x00" + chr(0xD800) + chr(0xDFFF) + chr(57_401), ""]
    counts = count_from_keys(None, ("a", "b", "UNKNOWN"), keys, [("a", "z"), ()])
    assert counts.tolist() == [[0, 2, 1], [0, 0, 0]]


def test_injected_traces_keep_pinned_moves(fn1, som):
    """The all-injected sets carry unknown activities, deletions and swaps;
    pinned under both cost schemes."""
    alt = CostScheme(c_log=2.0, c_model=3.0, c_silent=0.5)
    expected = {
        "som": ("17daf1a247317fcd7a58d6f26b47dc356d2b2f4ddfd3e452912a2a13bf7c4874",
                "53dd3549f835df396bc9c8f83902932d59f82a25e9284a5c1141bca537b7b6a1"),
        "fn1": ("5279f7217db54e14dd7bd6f52dd14b5beff20e6ad217cac55b4e727ed15dcb03",
                "afee02e69411b3223a65c1f418dd1a7f2b724647712ffff9bcd43ae558abae53"),
    }
    for net in (som, fn1):
        injected = build_eval_sets(playout(net, 50, seed=0), seed=0)["all"]
        traces = [tr.events for tr in injected]
        assert len(traces) == 150
        assert sum(ev not in net.visible_labels for tr in traces for ev in tr) == 170
        assert (move_digest(net, traces), move_digest(net, traces, alt)) == expected[net.name]


def trap_net() -> PetriNet:
    """source -a-> p -b-> q -c-> sink, plus a trap entered from p by e or
    silently, where d loops; no marking with a token in the trap reaches the
    final marking. The trap's ids sort before t_*, so the tie-break would
    take them if they could complete."""
    labels = {"t_a": "a", "t_b": "b", "t_c": "c", "d_e": "e", "d_d": "d", "d_tau": None}
    arcs = [("source", "t_a"), ("t_a", "p"), ("p", "t_b"), ("t_b", "q"), ("q", "t_c"),
            ("t_c", "sink"), ("p", "d_e"), ("d_e", "trap"), ("trap", "d_d"), ("d_d", "trap"),
            ("p", "d_tau"), ("d_tau", "trap")]
    return PetriNet(["source", "p", "q", "trap", "sink"], list(labels), arcs,
                    {"source": 1}, {"sink": 1}, labels, name="trap")


def test_markings_that_cannot_finish_are_skipped():
    """Sync moves on e and d lead into the trap; the search must not end
    there, and the moves stay as pinned."""
    net = trap_net()
    traces = [(), ("a", "b", "c"), ("a", "e", "d", "d"), ("a", "d", "d", "c"),
              ("a", "e", "b", "c"), ("e", "d"), ("a", "d", "b", "c"), ("a", "x", "d")]
    alt = CostScheme(c_log=2.0, c_model=3.0, c_silent=0.5)
    for costs in (CostScheme(), alt):
        for trace in traces:
            a = optimal_alignment(net, trace, costs)
            assert a.cost == oracle_alignment_cost(net, trace, costs.c_log, costs.c_model,
                                                   costs.c_silent)
            assert not any(mv.transition in ("d_e", "d_d", "d_tau") for mv in a.moves)
    assert [(mv.kind, mv.transition or mv.activity)
            for mv in optimal_alignment(net, ("a", "e", "d", "d")).moves] == [
        ("sync", "t_a"), ("model", "t_b"), ("model", "t_c"),
        ("log", "e"), ("log", "d"), ("log", "d")]
    assert [(mv.kind, mv.transition or mv.activity)
            for mv in optimal_alignment(net, ("a", "d", "d", "c")).moves] == [
        ("sync", "t_a"), ("model", "t_b"), ("log", "d"), ("log", "d"), ("sync", "t_c")]
    assert move_digest(net, traces) == (
        "4a21d41f00e6489e42916e2ea7f18bc4cf2e8e606b38ed782bf0d755ea7d3ed5")
    assert move_digest(net, traces, alt) == (
        "cf3718f4f2d7c7a41911732f176a2d2b3f6784136e2610a405f315dd26a778d5")

@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_default_cost_equals_misalignment_total_property(data):
    """Under the default costs every counted move costs 1 and nothing else
    costs anything, so the counter total is the alignment cost."""
    net = bundled_model(data.draw(st.sampled_from(["fn1", "som"])))
    alphabet = sorted(net.visible_labels) + ["x1", "x2"]
    trace = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=10)))
    a = optimal_alignment(net, trace)
    assert sum(misalignments(a, net.visible_labels).values()) == a.cost


@settings(max_examples=50, deadline=None)
@given(data=st.data(), c_log=st.sampled_from([1.0, 2.0]))
def test_unknown_activity_adds_c_log_property(data, c_log):
    """An event no transition carries is always a log move, so inserting one
    anywhere raises the optimal cost by exactly c_log."""
    net = bundled_model(data.draw(st.sampled_from(["fn1", "som"])))
    costs = CostScheme(c_log=c_log)
    alphabet = sorted(net.visible_labels) + ["x1"]
    trace = data.draw(st.lists(st.sampled_from(alphabet), max_size=10))
    at = data.draw(st.integers(0, len(trace)))
    longer = tuple(trace[:at]) + ("x9",) + tuple(trace[at:])
    assert (optimal_alignment(net, longer, costs).cost
            == optimal_alignment(net, tuple(trace), costs).cost + c_log)


def non_dyadic_corpus(fn1, som):
    """Noisy and injected playouts of som and fn1, and 50-300-event fn1 loops."""
    rng = random.Random(17)
    corpus = {}
    for net in (som, fn1):
        noisy = playout(net, 100, seed=6, noise=NoiseParams(0.05, 0.05))
        injected = build_eval_sets(playout(net, 40, seed=6), seed=6)["all"]
        corpus[net.name] = [tr.events for tr in noisy] + [tr.events for tr in injected]
    corpus["fn1 loops"] = [noisy_fn1_loop(rng, rng.randrange(50, 301)) for _ in range(12)]
    return corpus


def oracle_digest(net, traces, costs) -> str:
    """move_digest of the alignments oracle_exact_alignment returns."""
    h = hashlib.sha256()
    for trace in traces:
        moves, cost = oracle_exact_alignment(net, trace, costs.c_log, costs.c_model,
                                             costs.c_silent)
        h.update(repr((moves, float(cost))).encode())
    return h.hexdigest()


def test_non_dyadic_costs_keep_pinned_moves(fn1, som):
    """Costs whose float sums round differently along different paths; in
    exact units the tie-break decides among equal-cost alignments. Recorded
    with oracle_exact_alignment (oracle_digest): an exact search without
    pruning."""
    expected = {
        "som": ("c4ea78e28b9e945a73c78a73ff29c0348448f723f1d9b8f62e6463d293a62987",
                "41098e407a4938fb1ac0c1c26676eba1af18602f6948fb72a320eb76189bea64"),
        "fn1": ("46ef7c1bb0f872cc6e9e7ccd617c1f316126d78f5b2b8dd404e1720f05ed3661",
                "a42e5092b6471fc46dd205955b964668e301be94e8817cc62395f0fa6fd3f49e"),
        "fn1 loops": ("bfe2d435176f1352bd761dfd02679601dd1750acb2f47feaf1e420d756e1a608",
                      "eafeaf541d582f8c9e01c5c58fc424d67fc216ce1b1d2e19aae4f2464a4fab17"),
    }
    schemes = (CostScheme(0.7, 1.3, 0.1), CostScheme(1.0, 1.0, 0.3))
    for name, traces in non_dyadic_corpus(fn1, som).items():
        net = som if name == "som" else fn1
        assert tuple(move_digest(net, traces, costs) for costs in schemes) == expected[name]


def test_chunked_tables_align_like_single_ones(fn1, som):
    """A table computed with a chunk of traces equals the one computed alone,
    bit for bit, and so gives the same alignment."""
    costs = CostScheme(0.7, 1.3, 0.1)
    for name, traces in non_dyadic_corpus(fn1, som).items():
        net = som if name == "som" else fn1
        for trace, table in zip(traces, cost_to_go(net, traces, costs)):
            alone = next(cost_to_go(net, [trace], costs))
            assert table == alone
            assert optimal_alignment(net, trace, costs, table=table) == optimal_alignment(
                net, trace, costs)


COST_TO_GO_NETS = {"fn1": lambda: bundled_model("fn1"), "som": lambda: bundled_model("som"),
                   "trap": trap_net, "rand21": lambda: random_workflow_net(21, budget=5),
                   "rand23": lambda: random_workflow_net(23, budget=5)}


# each scheme's costs in its integer unit (1 and 1/10)
UNIT_COSTS = {CostScheme(): (1, 1, 0), CostScheme(0.7, 1.3, 0.1): (7, 13, 1)}


@pytest.mark.parametrize("costs", list(UNIT_COSTS))
@pytest.mark.parametrize("name", sorted(COST_TO_GO_NETS))
def test_cost_to_go_matches_oracle(name, costs):
    """h*(m, pos) equals the oracle's alignment cost of events[pos:] started
    in m, in the scheme's integer unit (1 and 1/10 here), for every
    reachable marking, those that cannot finish included (inf), on the
    empty trace, unknown activities and random traces."""
    net = COST_TO_GO_NETS[name]()
    rng = random.Random(len(name))
    alphabet = sorted(net.visible_labels) + ["x1"]
    traces = [(), ("x1",), tuple(sorted(net.visible_labels))[:4] + ("x2",)]
    traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
               for _ in range(3)]
    keys = reachability_graph(net)[1]
    for trace, h in zip(traces, cost_to_go(net, traces, costs)):
        want = oracle_cost_to_go(net, trace, *UNIT_COSTS[costs])
        assert len(h) == (len(trace) + 1) * (len(keys) + 1)
        got = {(key, pos): h[pos * (len(keys) + 1) + m] for m, key in enumerate(keys)
               for pos in range(len(trace) + 1)}
        assert got == want
    if name == "trap":
        assert any(v == float("inf") for v in want.values())


def test_pinned_moves_hold_with_a_bound_that_prunes_nothing(fn1, som, monkeypatch):
    """With a one-byte lane cap no net gets pass arrays and no trace a
    table, so the heap search aligns every trace, without pruning; every
    pinned alignment stays."""
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    assert next(cost_to_go(fn1, [LOOP_TRACE])) is None
    test_long_traces_keep_pinned_moves(fn1, som)
    test_many_distinct_unknown_activities(fn1)
    test_move_alphabet_wider_than_one_byte()
    test_injected_traces_keep_pinned_moves(fn1, som)
    test_markings_that_cannot_finish_are_skipped()
    test_non_dyadic_costs_keep_pinned_moves(fn1, som)


def count_pops(monkeypatch, net, traces) -> int:
    """heapq.heappop calls in confmon.alignment while aligning the traces."""
    pops = []

    def heappop(heap):
        pops.append(1)
        return heapq.heappop(heap)

    monkeypatch.setattr(confmon.alignment, "heapq",
                        SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    for trace in traces:
        optimal_alignment(net, trace)
    return len(pops)


def long_fn1_traces() -> list:
    """The 10 pinned long fn1 traces (1533 events)."""
    rng = random.Random(5)
    return [noisy_fn1_loop(rng, 60 + 190 * i // 9) for i in range(10)]


def test_pruning_keeps_long_traces_cheap(fn1, monkeypatch):
    """Work guard without timing: the walk passes one state per move on each
    of the 10 pinned long fn1 traces, so it aligns each under a state cap of
    its alignment's length and not one less; and it pops no heap. The heap
    search, which aligns the traces on a net without pass arrays, takes more
    than 10 000 pops."""
    long = long_fn1_traces()
    moves = [len(optimal_alignment(fn1, trace)) for trace in long]
    assert count_pops(monkeypatch, fn1, long) == 0
    for trace, n_moves in zip(long, moves):
        monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", n_moves)
        assert len(optimal_alignment(fn1, trace)) == n_moves
        monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", n_moves - 1)
        with pytest.raises(AlignmentError, match="exhausted after"):
            optimal_alignment(fn1, trace)
    monkeypatch.undo()
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    assert count_pops(monkeypatch, fn1, long) > 10_000


def test_net_moves_are_decoded_once_per_net(monkeypatch):
    """Work guard without timing: aligning the pinned long fn1 traces builds
    one Move per log move, plus the net's move alphabet once (a sync move per
    visible transition, a silent or model move per transition), not one Move
    per move of every alignment."""
    net = bundled_model("fn1")
    built = []
    real = confmon.alignment.Move

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(confmon.alignment, "Move", spy)
    alignments = [optimal_alignment(net, trace) for trace in long_fn1_traces()]
    log_moves = sum(mv.kind == "log" for a in alignments for mv in a.moves)
    alphabet = len(net.labels) + sum(label is not None for label in net.labels.values())
    assert len(built) <= log_moves + alphabet
    assert sum(map(len, alignments)) > 10 * (log_moves + alphabet)


def origin_table(net) -> tuple[int, int]:
    """(J, bytes) of the net's origin table: J is the most reachable
    markings one visible transition is enabled in, at least 1, and the
    table holds J x N x (A + 1) float64 for N markings and A visible
    activities."""
    succ = reachability_graph(net)[0]
    enabled = Counter(t for nexts in succ for t, _ in nexts if net.labels[t] is not None)
    depth = max(enabled.values(), default=1)
    return depth, depth * len(succ) * (len(net.visible_labels) + 1) * 8


@pytest.mark.parametrize("cap", [1 << 12, None])
def test_cost_to_go_arrays_stay_under_the_cap(fn1, som, cap, monkeypatch):
    """A chunk of two or more sequences holds its (positions, N + 1, B)
    float64 table in at most _TABLE_BYTES, 8 bytes a state; a chunk of one
    may exceed that, up to petri.DEFAULT_STATE_CAP states. Every chunk's
    pass holds its (J + 1, N, B) float64 candidates, the model-only costs
    to its events' origins, J of them per event, and the log move, in at
    most _LANE_BYTES. The spy refuses a larger chunk before it allocates,
    and bounds the nbytes of the arrays the tables are views of. The diagnoses match those built without any
    table. The caps are at their defaults, or both at 4096 bytes, where
    most fn1 loops get a chunk of their own."""
    if cap is not None:
        monkeypatch.setattr(confmon.alignment, "_TABLE_BYTES", cap)
        monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", cap)
    table_cap = confmon.alignment._TABLE_BYTES
    lane_cap = confmon.alignment._LANE_BYTES
    depths = {len(reachability_graph(net)[0]): origin_table(net)[0] for net in (fn1, som)}
    real = confmon.alignment._chunk_cost_to_go
    chunks = []

    def spy(tables, chunk, c_log):
        n_nodes = len(tables[3])
        depth = depths[n_nodes]
        width = max(map(len, chunk)) + 1
        cap = table_cap
        if len(chunk) == 1 and width * (n_nodes + 1) * 8 > table_cap:
            cap = confmon.petri.DEFAULT_STATE_CAP * 8
        assert width * (n_nodes + 1) * 8 * len(chunk) <= cap
        assert tables[0].shape[:2] == (depth, n_nodes)
        assert (depth + 1) * n_nodes * 8 * len(chunk) <= lane_cap
        chunks.append(len(chunk))
        for h in real(tables, chunk, c_log):
            assert h.obj.nbytes <= cap
            yield h

    rng = random.Random(3)
    loops = EventLog([Trace(f"c{i}", noisy_fn1_loop(rng, rng.randrange(50, 700)))
                      for i in range(30)])
    noisy = playout(som, 300, seed=2, noise=NoiseParams(0.05, 0.05))
    monkeypatch.setattr(confmon.alignment, "_chunk_cost_to_go", spy)
    pruned = [build_diagnoses(fn1, loops), build_diagnoses(som, noisy)]
    assert len(chunks) > 2
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    for got, want in zip(pruned, [build_diagnoses(fn1, loops), build_diagnoses(som, noisy)]):
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.fitness.tobytes() == want.fitness.tobytes()
        assert got.moves == want.moves


# the cost schemes the pass is checked against the reference pass under
REFERENCE_SCHEMES = [CostScheme(), CostScheme(0.7, 1.3, 0.1), CostScheme(2 ** 24, 2 ** 24, 0),
                     CostScheme(1.0, 1.0, 0.5), CostScheme(3.0, 2.0, 0.0)]


def silent_only_net() -> PetriNet:
    """A silent split into two branches of two silent steps each, then a
    silent join: 11 markings and no visible transition."""
    builder = _NetBuilder()
    branches = []
    for _ in range(2):
        first, mid, last = builder.place(), builder.place(), builder.place()
        builder.silent([first], [mid])
        builder.silent([mid], [last])
        branches.append((first, last))
    builder.silent(["source"], [first for first, _ in branches])
    builder.silent([last for _, last in branches], ["sink"])
    return builder.build("silent")


def never_enabled_net() -> PetriNet:
    """random_workflow_net seed 3 with one more visible transition, z, from
    a place that never holds a token into sink."""
    net = random_workflow_net(3)
    return PetriNet(net.places | {"idle"}, net.transitions | {"tz"},
                    net.arcs | {("idle", "tz"), ("tz", "sink")}, net.initial_marking,
                    net.final_marking, {**net.labels, "tz": "z"}, name="never")


@functools.cache
def reference_cases() -> tuple:
    """(net, traces) pairs: a random chunk of three noisy playouts and three
    random traces over the net's activities and x1 on each of
    random_workflow_net seeds 0-199, then the silent-only net and the net
    with a never-enabled transition, each with traces of its own and of
    unknown activities."""
    cases = []
    for seed in range(200):
        net = random_workflow_net(seed, budget=2 + seed % 5)
        rng = random.Random(seed)
        alphabet = sorted(net.visible_labels) + ["x1"]
        traces = [tr.events for tr in playout(net, 3, max_steps=60, seed=seed,
                                              noise=NoiseParams(0.15, 0.15))]
        traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
                   for _ in range(3)]
        cases.append((net, traces))
    unknown = [("x1",), ("x1", "x2", "x1")]
    cases.append((silent_only_net(), [(), *unknown]))
    never = never_enabled_net()
    cases.append((never, [("z",), ("a1", "z", "a2"), ("z", "z"), *unknown,
                          *(tr.events for tr in playout(never, 3, seed=1))]))
    return tuple(cases)


@pytest.mark.parametrize("costs", REFERENCE_SCHEMES)
def test_cost_to_go_pass_matches_the_reference_pass(fn1, som, costs):
    """Every table equals that of the dense reference pass in
    tests/oracle.py entry for entry, which builds its own model-only
    distances and sync successors from the net's arcs: on 30 noisy fn1
    loops of 50-700 events and 300 noisy som playouts with a trace of
    unknown activities, on a random chunk on each of 200 random workflow
    nets, on a net with no visible transition (no origins, so the pass
    reduces over a row of padding) and on one with a visible transition
    that is never enabled (an activity without origins). Each table is a
    read-only buffer of float64 ('d') whose entries read back as Python
    floats."""
    rng = random.Random(3)
    loops = [noisy_fn1_loop(rng, rng.randrange(50, 700)) for _ in range(30)]
    noisy = [tr.events for tr in playout(som, 300, seed=2, noise=NoiseParams(0.05, 0.05))]
    cases = [(fn1, loops), (som, noisy + [("x1", "x2") * 5])] + list(reference_cases())
    assert len(cases) == 204
    for net, traces in cases:
        want = oracle_chunk_cost_to_go(net, reachability_graph(net)[1], traces,
                                       *costs._units[1:])
        got = list(cost_to_go(net, traces, costs))
        assert len(got) == len(want) == len(traces)
        for h, ref in zip(got, want):
            assert h.readonly and h.format == "d"
            assert h.tolist() == ref
            assert type(h[len(h) - 1]) is float


@pytest.mark.parametrize("costs", [CostScheme(), CostScheme(0.7, 1.3, 0.1)])
def test_backward_pass_matches_the_dense_pass_on_mixed_lengths(fn1, som, costs):
    """_backward_pass on chunks that mix sequences of 0 to 600 events, eleven
    lanes a chunk, gives each sequence's lane the bytes of the dense
    reference pass in tests/oracle.py, and starts the flat index of its
    (pos 0, marking 0) state. The nets are fn1 (J = 2 origins for an
    activity), som (J = 1) and random workflow nets with J from 1 to 18, in
    a chunk of noisy playouts and random traces over the net's activities
    and x1."""
    rng = random.Random(5)
    lengths = (0, 1, 2, 9, 50, 133, 301, 600)
    nets = [fn1, som] + [random_workflow_net(seed, budget) for seed, budget
                         in ((0, 6), (11, 5), (9, 6), (5, 6), (3, 3))]
    depths = [origin_table(net)[0] for net in nets]
    assert depths[:2] == [2, 1] and max(depths) == 18 and min(depths[2:]) == 1
    for net in nets:
        alphabet = sorted(net.visible_labels) + ["x1"]
        chunk = [tuple(rng.choice(alphabet) for _ in range(n)) for n in lengths]
        if net is fn1:
            chunk += [noisy_fn1_loop(rng, n) for n in (8, 300, 600)]
        else:
            chunk += [tr.events for tr in playout(net, 3, max_steps=60, seed=1,
                                                  noise=NoiseParams(0.1, 0.1))]
        chunk = [tuple(events) for events in rng.sample(chunk, len(chunk))]
        tables = confmon.alignment._tables(net, costs)[4]
        h, starts = confmon.alignment._backward_pass(tables, chunk, costs._units[1])
        want = oracle_chunk_cost_to_go(net, reachability_graph(net)[1], chunk,
                                       *costs._units[1:])
        stride = len(reachability_graph(net)[0]) + 1
        assert h.shape == (max(map(len, chunk)) + 1, stride, len(chunk))
        flat = h.reshape(-1)
        for b, (start, sigma, ref) in enumerate(zip(starts, chunk, want)):
            assert start == (h.shape[0] - 1 - len(sigma)) * stride * len(chunk) + b
            assert flat[start::len(chunk)].tobytes() == np.array(ref).tobytes()


def test_each_chunk_array_is_freed_before_the_next_pass(fn1, monkeypatch):
    """align_variants hands each table straight to optimal_alignment, so no
    name holds a chunk's array once its last trace is aligned: a weakref to
    each (positions, N + 1, B) array _backward_pass returns is dead when the
    next chunk's pass starts, and every one is dead once build_diagnoses
    returns. A 16 KiB table cap cuts 20 fn1 loops of 20-305 events into
    at least five chunks."""
    monkeypatch.setattr(confmon.alignment, "_TABLE_BYTES", 1 << 14)
    rng = random.Random(8)
    log = EventLog([Trace(f"c{i}", noisy_fn1_loop(rng, 20 + 15 * i)) for i in range(20)])
    real = confmon.alignment._backward_pass
    arrays = []

    def spy(tables, chunk, c_log):
        assert sum(ref() is not None for ref in arrays) == 0
        h, starts = real(tables, chunk, c_log)
        arrays.append(weakref.ref(h))
        return h, starts

    monkeypatch.setattr(confmon.alignment, "_backward_pass", spy)
    build_diagnoses(fn1, log)
    assert len(arrays) >= 5
    assert all(ref() is None for ref in arrays)


def test_two_passes_for_a_check_of_25_long_fn1_traces(fn1, monkeypatch):
    """Work guard without timing: build_diagnoses on 25 distinct fn1 loop
    traces of 50-500 events runs exactly two cost-to-go passes. The variants
    go longest first, so the first pass is as full as the table cap allows
    at the longest trace's width: a float64 table takes (positions) x
    (7 markings + 1) x 8 bytes per lane, and 24 lanes fit in _TABLE_BYTES,
    25 do not. The shortest trace gets a second, narrower pass. Every entry
    of every table reads back as a float."""
    rng = random.Random(11)
    log = EventLog([Trace(f"c{i}", noisy_fn1_loop(rng, 50 + 450 * i // 24))
                    for i in range(25)])
    assert len({tr.events for tr in log}) == 25
    longest = max(len(tr) for tr in log)
    cap = confmon.alignment._TABLE_BYTES
    assert (longest + 1) * 8 * 8 * 24 <= cap < (longest + 1) * 8 * 8 * 25
    real = confmon.alignment._chunk_cost_to_go
    passes = []

    def spy(tables, chunk, c_log):
        passes.append((len(chunk), max(map(len, chunk))))
        for h in real(tables, chunk, c_log):
            assert all(type(v) is float for v in h)
            yield h

    monkeypatch.setattr(confmon.alignment, "_chunk_cost_to_go", spy)
    build_diagnoses(fn1, log)
    assert [lanes for lanes, _ in passes] == [24, 1]
    assert passes[0][1] == longest


def test_short_som_traces_take_no_more_passes(som, monkeypatch):
    """Work guard without timing: build_diagnoses on a seeded 6 000-trace
    som log made like the monitor's evaluation log (1 500 noisy playouts
    and the 4 500 injected copies of 1 500 clean ones) runs at most 14
    cost-to-go passes over at most 146 positions, what it ran with the
    variants shortest first and the per-lane arrays under a 2^17-element
    cap. It runs 7 over 74: som's (J, N) gather takes 88 bytes a lane, so
    _TABLE_BYTES binds, not _LANE_BYTES. Longest first, the first chunk is
    the widest, and the table cap must not cut its lanes."""
    noise = NoiseParams(0.03, 0.03)
    held_out = playout(som, 1500, seed=2000, noise=noise)
    injected = build_eval_sets(playout(som, 1500, seed=1000), 3.0, seed=0)["all"]
    log = EventLog([Trace(f"n{tr.case_id}", tr.events, "normal") for tr in held_out]
                   + list(injected))
    assert len(log) == 6000
    real = confmon.alignment._chunk_cost_to_go
    widths = []

    def spy(tables, chunk, c_log):
        widths.append(max(map(len, chunk)))
        return real(tables, chunk, c_log)

    monkeypatch.setattr(confmon.alignment, "_chunk_cost_to_go", spy)
    build_diagnoses(som, log)
    assert len(widths) <= 14
    assert sum(widths) <= 146


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(2, 6))
def test_tables_of_2_24_units_scale_the_default_ones_property(seed, budget):
    """Property over random workflow nets with noisy and random traces:
    costs of 2^24 units give the path keys of the default costs, and tables
    and costs exactly 2^24 times theirs."""
    net = random_workflow_net(seed, budget=budget)
    rng = random.Random(seed)
    alphabet = sorted(net.visible_labels) + ["x1"]
    traces = [tr.events for tr in playout(net, 5, max_steps=60, seed=seed,
                                          noise=NoiseParams(0.15, 0.15))]
    traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
               for _ in range(3)]
    small, big = CostScheme(), CostScheme(2 ** 24, 2 ** 24, 0)
    for trace, h, h_big in zip(traces, cost_to_go(net, traces, small),
                               cost_to_go(net, traces, big)):
        assert [v * 2 ** 24 for v in h.tolist()] == h_big.tolist()
        a = optimal_alignment(net, trace, small, table=h)
        b = optimal_alignment(net, trace, big, table=h_big)
        assert a.key == b.key
        assert b.cost == a.cost * 2 ** 24


@pytest.mark.parametrize("costs, units", [
    (CostScheme(), (1, 1, 1, 0)),
    (CostScheme(2.0, 3.0, 0.5), (2, 4, 6, 1)),
    (CostScheme(1, 2, 0), (1, 1, 2, 0)),
    (CostScheme(0.7, 1.3, 0.1), (10, 7, 13, 1)),
    (CostScheme(0.25, 0.001, 1e-2), (1000, 250, 1, 10)),
])
def test_cost_scheme_derives_one_integer_unit(costs, units):
    """D is the least common multiple of the denominators of the costs'
    decimal forms; _units holds D and each cost in units of 1/D."""
    assert costs._units == units


@settings(max_examples=300, deadline=None)
@given(value=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_decimal_ratio_is_the_fraction_of_the_printed_float(value):
    """The unit is derived from each cost as Fraction(repr(cost)) would read
    it, without importing fractions into the package."""
    exact = Fraction(repr(value))
    assert confmon.alignment._decimal_ratio(value) == (exact.numerator, exact.denominator)


def test_cost_unit_over_the_cap_names_the_cost():
    """A cost that needs a unit finer than 1/2^32, or more than 2^32 units,
    is refused when the scheme is built, naming the cost."""
    with pytest.raises(AlignmentError, match=r"c_silent = 0\.3333333333333333 needs a "
                                             r"cost unit finer than 1/4294967296"):
        CostScheme(1.0, 1.0, 1 / 3)
    with pytest.raises(AlignmentError, match=r"c_model = 1e\+20 is more than 4294967296 "
                                             r"units of 1/1"):
        CostScheme(1.0, 1e20)
    with pytest.raises(AlignmentError, match=r"c_model = 4294967296\.5 is more than"):
        CostScheme(1.0, 2.0 ** 32 + 0.5)
    assert CostScheme(1.0, 2.0 ** 32)._units == (1, 1, 1 << 32, 0)


def test_equal_exact_costs_break_ties_by_move_order(fn1):
    """Under (0.7, 1.3, 0.1) a model move and two silent moves cost 1.5, as
    do two log moves and one silent move; their float sums differ, their
    exact sums do not, and the model move ranks before the log move."""
    trace = ("t1", "t3", "t4", "t4", "t2", "t5", "t3", "t4", "t5", "t6")
    costs = CostScheme(0.7, 1.3, 0.1)
    a = optimal_alignment(fn1, trace, costs)
    moves, cost = oracle_exact_alignment(fn1, trace, 0.7, 1.3, 0.1)
    assert [(mv.kind, mv.activity, mv.transition) for mv in a.moves] == moves
    assert a.cost == float(cost) == 1.5
    assert [str(mv) for mv in a.moves][3:6] == ["(>>,t5)", "(>>,tau)", "(t4,t4)"]


def test_non_dyadic_pins_match_the_exact_oracle(fn1, som):
    """The first 30 traces of each corpus of the non-dyadic pins align as
    oracle_exact_alignment aligns them, under both schemes."""
    schemes = (CostScheme(0.7, 1.3, 0.1), CostScheme(1.0, 1.0, 0.3))
    for name, traces in non_dyadic_corpus(fn1, som).items():
        net = som if name == "som" else fn1
        sample = traces[:30] if name != "fn1 loops" else traces[:3]
        for costs in schemes:
            assert move_digest(net, sample, costs) == oracle_digest(net, sample, costs)


def with_silent_loop(net: PetriNet, place: str) -> PetriNet:
    """The net plus a zero-cost cycle: silent s0a moves a token from place to
    a new place zloop, silent s0b moves it back. s0a ranks before every
    other silent transition of a random_workflow_net."""
    labels = dict(net.labels, s0a=None, s0b=None)
    arcs = sorted(net.arcs) + [(place, "s0a"), ("s0a", "zloop"), ("zloop", "s0b"),
                               ("s0b", place)]
    return PetriNet(sorted(net.places) + ["zloop"], list(labels), arcs,
                    net.initial_marking, net.final_marking, labels, name=net.name + "+loop")


WALK_SCHEMES = [CostScheme(), CostScheme(2.0, 3.0, 0.5), CostScheme(1.0, 2.0, 0.0),
                CostScheme(0.7, 1.3, 0.1)]


def keys_and_costs(net, traces, costs) -> list:
    return [(a.key, a.cost) for a in (
        optimal_alignment(net, trace, costs, table=table)
        for trace, table in zip(traces, cost_to_go(net, traces, costs)))]


@pytest.mark.parametrize("costs", WALK_SCHEMES)
def test_walk_matches_the_heap_on_random_nets(costs, monkeypatch):
    """Property over 40 random workflow nets, every other one with a
    zero-cost silent cycle: on noisy playouts and random traces the walk
    returns the path keys and costs of the heap search, which aligns the
    same traces when no trace gets a table; a sample matches the exact
    oracle too."""
    nets, corpora = [], []
    for seed in range(40):
        net = random_workflow_net(100 + seed, budget=3 + seed % 4)
        if seed % 2:
            inner = sorted(net.places - {"sink"})
            net = with_silent_loop(net, inner[seed % len(inner)])
        rng = random.Random(seed)
        alphabet = sorted(net.visible_labels) + ["x1"]
        traces = [tr.events for tr in playout(net, 4, max_steps=60, seed=seed,
                                              noise=NoiseParams(0.15, 0.15))]
        traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 9)))
                   for _ in range(4)]
        nets.append(net)
        corpora.append(traces)
    walked = [keys_and_costs(net, traces, costs) for net, traces in zip(nets, corpora)]
    for net, traces, got in zip(nets[:8], corpora, walked):
        for trace, (key, cost) in zip(traces[:2], got):
            moves, exact = oracle_exact_alignment(net, trace, costs.c_log, costs.c_model,
                                                  costs.c_silent)
            assert cost == float(exact)
            assert [(mv.kind, mv.activity, mv.transition)
                    for mv in optimal_alignment(net, trace, costs).moves] == moves
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    for net, traces, got in zip(nets, corpora, walked):
        assert keys_and_costs(net, traces, costs) == got


def silent_cycle_net() -> PetriNet:
    """source -b-> p; silent s1 from p to q and s2 back, a zero-cost cycle;
    silent s3 from p to r, then a into sink. s1 ranks before s3, so the walk
    first enters q, whose only move leads back to p."""
    labels = {"t_b": "b", "s1": None, "s2": None, "s3": None, "t_a": "a"}
    arcs = [("source", "t_b"), ("t_b", "p"), ("p", "s1"), ("s1", "q"), ("q", "s2"),
            ("s2", "p"), ("p", "s3"), ("s3", "r"), ("r", "t_a"), ("t_a", "sink")]
    return PetriNet(["source", "p", "q", "r", "sink"], list(labels), arcs,
                    {"source": 1}, {"sink": 1}, labels, name="cycle")


@pytest.mark.parametrize("costs, expansions", [(CostScheme(), 13),
                                                (CostScheme(1.0, 2.0, 0.0), 9)])
def test_zero_cost_silent_cycle_sends_the_trace_to_the_heap(costs, expansions, monkeypatch):
    """After the sync run on b the walk takes s1 into q, a dead end, and
    sends the trace to the heap search, which returns the oracle's
    alignment; with or without a dead end, every trace aligns as the heap
    aligns it on a net without pass arrays. The heap counts only its own
    expansions against the state cap: on x x b a the walk passes 5 states
    before its dead end, and the heap aligns the trace under a cap of its
    own expansions and not one less."""
    net = silent_cycle_net()
    real = confmon.alignment._search
    searched = []
    monkeypatch.setattr(confmon.alignment, "_search",
                        lambda sigma, *args: searched.append(sigma) or real(sigma, *args))
    trace = ("b", "a")
    a = optimal_alignment(net, trace, costs)
    assert searched == [trace]
    assert [(mv.kind, mv.transition) for mv in a.moves] == [
        ("sync", "t_b"), ("silent", "s3"), ("sync", "t_a")]
    assert a.cost == 0.0
    moves, _ = oracle_exact_alignment(net, trace, costs.c_log, costs.c_model, costs.c_silent)
    assert [(mv.kind, mv.activity, mv.transition) for mv in a.moves] == moves
    for events in [trace, ("a",), ("b",), ("b", "x", "a"), ()]:
        walked = optimal_alignment(net, events, costs)
        with monkeypatch.context() as patch:
            patch.setattr(confmon.alignment, "_LANE_BYTES", 1)
            assert optimal_alignment(net, events, costs) == walked
    long = ("x", "x", "b", "a")
    want = optimal_alignment(net, long, costs)
    searched.clear()
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", expansions)
    assert optimal_alignment(net, long, costs) == want
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", expansions - 1)
    with pytest.raises(AlignmentError, match=f"exhausted after {expansions - 1} expansions"):
        optimal_alignment(net, long, costs)
    assert searched == [long, long]


def test_monitor_and_long_loop_traffic_is_all_walked(fn1, som, monkeypatch):
    """Work guard without timing: build_diagnoses on noisy som playouts with
    injected copies of clean ones, and on 25 noisy fn1 loops of 50-500
    events, walks every variant and never calls the heap search."""
    real = confmon.alignment._search
    searched = []
    monkeypatch.setattr(confmon.alignment, "_search",
                        lambda sigma, *args: searched.append(sigma) or real(sigma, *args))
    noisy = playout(som, 300, seed=2, noise=NoiseParams(0.05, 0.05))
    injected = build_eval_sets(playout(som, 300, seed=1000), 3.0, seed=0)["all"]
    rng = random.Random(11)
    loops = [Trace(f"c{i}", noisy_fn1_loop(rng, 50 + 450 * i // 24)) for i in range(25)]
    som_rows = build_diagnoses(som, EventLog(list(noisy) + list(injected)))
    fn1_rows = build_diagnoses(fn1, EventLog(loops))
    assert len(som_rows) == 1200 and len(fn1_rows) == 25
    assert som_rows.log_fitness() < 1.0 and fn1_rows.log_fitness() < 1.0
    assert searched == []


def test_unknown_trace_walks_within_a_small_state_cap(som, monkeypatch):
    """Work guard without timing: a 500-event som trace of unknown
    activities aligns in 508 moves under a state cap of 600, with the heap's
    moves and cost; the heap search pops about 11 500 entries for it."""
    trace = tuple(f"u{k % 7}" for k in range(500))
    want = optimal_alignment(som, trace)
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 600)
    got = optimal_alignment(som, trace)
    assert got == want
    assert got.cost == 500 + worst_case_cost(som, ())
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    with pytest.raises(AlignmentError, match="exhausted after 600 expansions"):
        optimal_alignment(som, trace)


def spy_passes(monkeypatch) -> list:
    """Grows by the lanes of each cost-to-go pass run while the test runs."""
    real = confmon.alignment._backward_pass
    passes = []

    def spy(tables, chunk, c_log):
        passes.append(len(chunk))
        return real(tables, chunk, c_log)

    monkeypatch.setattr(confmon.alignment, "_backward_pass", spy)
    return passes


def test_a_trace_over_the_table_cap_is_walked_in_a_chunk_of_its_own(fn1, monkeypatch):
    """Under a 4096-byte table cap an fn1 table holds 64 positions. A noisy
    loop of more than 100 events between two short traces gets a pass of
    its own, so three passes run, and the walk aligns it without popping a heap,
    to the path key and cost of the heap search on a net without pass
    arrays."""
    monkeypatch.setattr(confmon.alignment, "_TABLE_BYTES", 4096)
    trace = noisy_fn1_loop(random.Random(6), 150)
    assert len(trace) > 100 and (len(trace) + 1) * 8 * 8 > 4096
    passes = spy_passes(monkeypatch)
    tables = list(cost_to_go(fn1, [LOOP_TRACE, trace, LOOP_TRACE]))
    assert passes == [1, 1, 1]
    h = tables[1]
    assert h.format == "d" and len(h) == (len(trace) + 1) * 8
    assert count_pops(monkeypatch, fn1, [trace]) == 0
    walked = optimal_alignment(fn1, trace)
    assert walked.cost == h[0]
    monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", 1)
    searched = optimal_alignment(fn1, trace)
    assert (walked.key, walked.cost) == (searched.key, searched.cost)


def test_a_table_over_the_state_cap_is_refused_before_the_pass(fn1, monkeypatch):
    """A chunk of its own holds (n + 1) x (N + 1) states for a trace of n
    events; with petri.DEFAULT_STATE_CAP one below that, the trace is
    refused with an AlignmentError that names its events and the cap, and
    no pass runs. At the cap itself it aligns."""
    monkeypatch.setattr(confmon.alignment, "_TABLE_BYTES", 4096)
    trace = noisy_fn1_loop(random.Random(6), 150)
    states = (len(trace) + 1) * 8
    passes = spy_passes(monkeypatch)
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", states - 1)
    with pytest.raises(AlignmentError, match=f"a trace of {len(trace)} events needs {states} "
                                             f"cost-to-go states, more than the cap of "
                                             f"{states - 1}"):
        optimal_alignment(fn1, trace)
    assert passes == []
    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", states)
    optimal_alignment(fn1, trace)
    assert passes == [1]


def parallel_net(branches: int, steps: int) -> PetriNet:
    """A silent split into branches parallel sequences of steps visible
    transitions each, then a silent join: (steps + 1) ** branches + 2
    markings."""
    builder = _NetBuilder()
    starts, ends = [], []
    for _ in range(branches):
        place = builder.place()
        starts.append(place)
        for _ in range(steps):
            nxt = builder.place()
            builder.visible(place, nxt)
            place = nxt
        ends.append(place)
    builder.silent(["source"], starts)
    builder.silent(ends, ["sink"])
    return builder.build(f"par{branches}x{steps}")


# the ladder of nets: its builder, and whether its origin table fits the
# lane cap
LADDER = {"som": (lambda: bundled_model("som"), True),
          "fn1": (lambda: bundled_model("fn1"), True),
          "par2x10": (lambda: parallel_net(2, 10), True),
          "par3x5": (lambda: parallel_net(3, 5), True),
          "par3x6": (lambda: parallel_net(3, 6), False),
          "par4x4": (lambda: parallel_net(4, 4), False)}
# (markings, J, bytes) of the origin tables near the cap
LADDER_TABLES = {"par3x5": (218, 36, 1_004_544), "par3x6": (345, 49, 2_569_560),
                 "par4x4": (627, 125, 10_659_000)}


@pytest.mark.parametrize("name", list(LADDER))
def test_a_net_too_wide_for_the_pass_is_aligned_on_the_heap(name):
    """A net gets pass arrays when its origin table, J x N x (A + 1) x 8
    bytes, fits _LANE_BYTES. On the ladder som, fn1, par2x10 and par3x5
    (218 markings, J = 36) fit; par3x6 (345 markings, J = 49) and par4x4
    (627 markings, J = 125) do not, so their traces get no table and the
    heap search aligns them. Either way 3 noisy playouts align as the exact
    oracle does."""
    build, covered = LADDER[name]
    net = build()
    depth, size = origin_table(net)
    if name in LADDER_TABLES:
        assert (len(reachability_graph(net)[0]), depth, size) == LADDER_TABLES[name]
    assert (size <= confmon.alignment._LANE_BYTES) == covered
    traces = [tr.events for tr in playout(net, 3, seed=1, noise=NoiseParams(0.1, 0.1))]
    assert [h is not None for h in cost_to_go(net, traces)] == [covered] * 3
    costs = []
    for trace in traces:
        a = optimal_alignment(net, trace)
        moves, cost = oracle_exact_alignment(net, trace)
        assert [(mv.kind, mv.activity, mv.transition) for mv in a.moves] == moves
        assert a.cost == float(cost)
        costs.append(a.cost)
    assert any(costs)
