from __future__ import annotations

import hashlib
import heapq
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmon.alignment
import confmon.petri
from confmon.alignment import (Alignment, CostScheme, SKIP, cost_to_go, misalignments,
                               optimal_alignment, trace_fitness,
                               worst_case_cost)
from confmon.diagnoses import build_diagnoses, coverage, log_fitness
from confmon.errors import AlignmentError, LogError
from confmon.eventlog import EventLog, Trace
from confmon.inject import build_eval_sets
from confmon.petri import (NoiseParams, PetriNet, bundled_model, check_soundness,
                           playout, reachability_graph)
from conftest import random_workflow_net
from oracle import oracle_alignment_cost, oracle_cost_to_go

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
    with pytest.raises(AlignmentError, match="c_sync"):
        CostScheme(c_sync=0.5)
    with pytest.raises(AlignmentError, match="positive"):
        CostScheme(c_log=0.0)
    with pytest.raises(AlignmentError, match="c_silent"):
        CostScheme(c_silent=-1.0)


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


def test_non_dyadic_costs_keep_pinned_moves(fn1, som):
    """Costs whose sums round differently along different paths: the pruning
    bound must keep every prefix of the canonical alignment. Recorded with
    the search without the bound."""
    expected = {
        "som": ("62dbbc5bed044a5539d5193cdd2f33c91337cc8314b14ea919d97bfefb3ae596",
                "41098e407a4938fb1ac0c1c26676eba1af18602f6948fb72a320eb76189bea64"),
        "fn1": ("b0fc90f8f2da1c9a8907bbd754a88c7c48b102e725b78ffbc3e9451bde59aaa8",
                "8beb2584a2dd561efa2c1e49fe1ca7f1a4f89503086774a1dbf2949248d55ce3"),
        "fn1 loops": ("f73ec05bd59bc733e9681a42b49d2e2570daed27432b81de72285fdf2825cc28",
                      "0d7db05fb4dcee2d6bd1b1ab4c4de9130f36cdcb33eb11dcaa480e9185b953f9"),
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
        for trace, h in zip(traces, cost_to_go(net, traces, costs)):
            assert h == next(cost_to_go(net, [trace], costs))
            assert optimal_alignment(net, trace, costs, h=h) == optimal_alignment(
                net, trace, costs)


COST_TO_GO_NETS = {"fn1": lambda: bundled_model("fn1"), "som": lambda: bundled_model("som"),
                   "trap": trap_net, "rand21": lambda: random_workflow_net(21, budget=5),
                   "rand23": lambda: random_workflow_net(23, budget=5)}


@pytest.mark.parametrize("costs", [CostScheme(), CostScheme(0.7, 1.3, 0.1)])
@pytest.mark.parametrize("name", sorted(COST_TO_GO_NETS))
def test_cost_to_go_matches_oracle(name, costs):
    """h*(m, pos) equals the oracle's alignment cost of events[pos:] started
    in m, for every reachable marking, those that cannot finish included
    (inf), on the empty trace, unknown activities and random traces."""
    net = COST_TO_GO_NETS[name]()
    rng = random.Random(len(name))
    alphabet = sorted(net.visible_labels) + ["x1"]
    traces = [(), ("x1",), tuple(sorted(net.visible_labels))[:4] + ("x2",)]
    traces += [tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
               for _ in range(3)]
    keys = reachability_graph(net)[1]
    for trace, h in zip(traces, cost_to_go(net, traces, costs)):
        want = oracle_cost_to_go(net, trace, costs.c_log, costs.c_model, costs.c_silent)
        width = len(trace) + 1
        got = {(key, pos): h[m * width + pos] for m, key in enumerate(keys)
               for pos in range(width)}
        assert got == pytest.approx(want, rel=1e-12)
    if name == "trap":
        assert any(v == float("inf") for v in want.values())


def test_pinned_moves_hold_with_a_bound_that_prunes_nothing(fn1, som, monkeypatch):
    """With a one-element chunk cap no trace gets a table, so the bound is
    inf and the search prunes nothing; every pinned alignment stays."""
    monkeypatch.setattr(confmon.alignment, "_CHUNK_ELEMENTS", 1)
    assert next(cost_to_go(fn1, [LOOP_TRACE]))[0] == float("inf")
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
    """Work guard without timing: the 10 pinned long fn1 traces take 14 130
    heap pops without the bound and its sync chase, 12 153 with the chase
    alone, and 891 with both."""
    long = long_fn1_traces()
    assert count_pops(monkeypatch, fn1, long) <= 2000
    monkeypatch.setattr(confmon.alignment, "_CHUNK_ELEMENTS", 1)
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


@pytest.mark.parametrize("cap", [1 << 12, None])
def test_cost_to_go_arrays_stay_under_the_cap(fn1, som, cap, monkeypatch):
    """Every array of a chunk's pass, the (positions, N + 1, B) table and
    the (N, N, B) min-plus temporary, holds at most _CHUNK_ELEMENTS elements;
    the spy refuses a larger chunk before it allocates. Traces too long for
    a chunk of their own are never passed in, and the diagnoses match those
    built without any table."""
    if cap is not None:
        monkeypatch.setattr(confmon.alignment, "_CHUNK_ELEMENTS", cap)
    limit = confmon.alignment._CHUNK_ELEMENTS
    real = confmon.alignment._chunk_cost_to_go
    chunks = []

    def spy(tables, chunk, c_log):
        n_nodes = len(tables[3])
        width = max(map(len, chunk)) + 1
        assert width * (n_nodes + 1) * len(chunk) <= limit
        assert n_nodes * n_nodes * len(chunk) <= limit
        chunks.append(len(chunk))
        yield from real(tables, chunk, c_log)

    rng = random.Random(3)
    loops = EventLog([Trace(f"c{i}", noisy_fn1_loop(rng, rng.randrange(50, 700)))
                      for i in range(30)])
    noisy = playout(som, 300, seed=2, noise=NoiseParams(0.05, 0.05))
    monkeypatch.setattr(confmon.alignment, "_chunk_cost_to_go", spy)
    pruned = [build_diagnoses(fn1, loops), build_diagnoses(som, noisy)]
    assert len(chunks) > 2
    monkeypatch.setattr(confmon.alignment, "_CHUNK_ELEMENTS", 1)
    for got, want in zip(pruned, [build_diagnoses(fn1, loops), build_diagnoses(som, noisy)]):
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.fitness.tobytes() == want.fitness.tobytes()
        assert got.moves == want.moves
