from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmon.alignment import optimal_alignment
from confmon.errors import AlignmentError, ModelError, PlayoutError
from confmon.eventlog import Trace
from confmon.petri import (NoiseParams, PetriNet, bundled_model, check_soundness,
                           enabled, fire, is_workflow_net, parse_model, playout)
from conftest import random_workflow_net
from oracle import oracle_playout, oracle_reachability


def test_parse_fn1_shape(fn1):
    assert len(fn1.places) == 7
    assert len(fn1.transitions) == 7
    silents = [t for t in fn1.transitions if fn1.is_silent(t)]
    assert silents == ["tau"]
    assert fn1.visible_labels == {"t1", "t2", "t3", "t4", "t5", "t6"}
    assert fn1.initial_marking == {"source": 1}
    assert fn1.final_marking == {"sink": 1}


def test_parse_som_shape(som):
    assert len(som.places) == 11
    assert len(som.transitions) == 14
    assert not any(som.is_silent(t) for t in som.transitions)
    assert all(lbl.startswith("som_") for lbl in som.visible_labels)


@pytest.mark.parametrize("text,line,fragment", [
    ("place p1\nfrobnicate p1\n", 2, "unknown directive"),
    ("place p1 extra\n", 1, "expected 'place <id>'"),
    ("place p1\nplace p1\n", 2, "duplicate id"),
    ("place p1\ntrans t1\n", 2, "expected 'trans"),
    ("place p1\ninit p1 one\n", 2, "must be an integer"),
    ("place p1\ninit p1 1\ninit p1 2\n", 3, "duplicate init"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ModelError) as exc:
        parse_model(text, name="bad")
    assert f"line {line}" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_rejects_arc_to_unknown_id():
    text = "place p1\ntrans t1 label a\narc p1 t1\narc t1 nowhere\ninit p1 1\nfinal p1 1\n"
    with pytest.raises(ModelError, match="unknown id 'nowhere'"):
        parse_model(text)


def test_parse_rejects_transition_without_input_arc():
    text = "place p1\nplace p2\ntrans t1 label a\narc t1 p2\ninit p1 1\nfinal p2 1\n"
    with pytest.raises(ModelError, match="no input arc"):
        parse_model(text)


def test_parse_rejects_transition_without_output_arc():
    text = "place p1\nplace p2\ntrans t1 label a\narc p1 t1\ninit p1 1\nfinal p2 1\n"
    with pytest.raises(ModelError, match="no output arc"):
        parse_model(text)


def test_parse_rejects_reserved_activity_names():
    text = "place p1\nplace p2\ntrans t1 label UNKNOWN\narc p1 t1\narc t1 p2\ninit p1 1\nfinal p2 1\n"
    with pytest.raises(ModelError, match="reserved"):
        parse_model(text)


def test_duplicate_activity_label_rejected():
    text = ("place p1\nplace p2\nplace p3\n"
            "trans t1 label a\ntrans t2 label a\n"
            "arc p1 t1\narc t1 p2\narc p2 t2\narc t2 p3\n"
            "init p1 1\nfinal p3 1\n")
    with pytest.raises(ModelError, match="labels both"):
        parse_model(text)


def test_enabled_and_fire_frozen_examples(fn1):
    m0 = fn1.initial_marking
    assert enabled(fn1, m0) == {"t1"}
    m1 = fire(fn1, m0, "t1")
    assert m1 == {"p1": 1, "p2": 1}
    assert enabled(fn1, m1) == {"t2", "t3", "t4"}
    assert fire(fn1, {"p3": 1, "p4": 1}, "t5") == {"p5": 1}


def test_fire_rejects_disabled_transition(fn1):
    with pytest.raises(ModelError, match="not enabled"):
        fire(fn1, fn1.initial_marking, "t5")
    with pytest.raises(ModelError, match="unknown transition"):
        fire(fn1, fn1.initial_marking, "t99")


def test_empty_preset_transition_is_never_enabled():
    # Built directly: parse_model would reject the missing input arc.
    net = PetriNet(["p1", "p2"], ["t1", "t0"], [("p1", "t1"), ("t1", "p2"), ("t0", "p1")],
                   {"p1": 1}, {"p2": 1}, {"t1": "a", "t0": "b"})
    assert enabled(net, {"p1": 1}) == {"t1"}
    assert enabled(net, {"p1": 5, "p2": 5}) == {"t1"}
    with pytest.raises(ModelError, match="not enabled"):
        fire(net, {"p1": 1}, "t0")


def test_bounded_net_with_large_initial_marking():
    # 65537 tokens on one place is a large count, not a sign of unboundedness
    net = PetriNet(["a", "b"], ["t"], [("a", "t"), ("t", "b")],
                   {"a": 1, "b": 65536}, {"b": 65537}, {"t": "x"})
    rep = check_soundness(net)
    assert rep.sound
    assert not rep.inconclusive
    assert rep.markings_explored == 2
    assert optimal_alignment(net, ("x",)).cost == 0
    assert [tr.events for tr in playout(net, 3)] == [("x",)] * 3


def test_is_workflow_net(fn1, som):
    assert is_workflow_net(fn1)
    assert is_workflow_net(som)
    # second sourceless place breaks the unique-source requirement
    bad = PetriNet(["source", "extra", "sink"], ["t1"],
                   [("source", "t1"), ("t1", "sink")],
                   {"source": 1}, {"sink": 1}, {"t1": "a"})
    assert not is_workflow_net(bad)
    # initial marking must be exactly one token on the source
    bad2 = PetriNet(["source", "sink"], ["t1"], [("source", "t1"), ("t1", "sink")],
                    {"source": 2}, {"sink": 1}, {"t1": "a"})
    assert not is_workflow_net(bad2)


def test_soundness_fn1(fn1):
    rep = check_soundness(fn1)
    assert rep.sound
    assert rep.final_always_reachable
    assert rep.dead_transitions == ()
    assert rep.markings_explored == 7
    assert not rep.inconclusive


def test_soundness_som(som):
    rep = check_soundness(som)
    assert rep.sound
    assert rep.markings_explored == 11


def test_soundness_reports_dead_transition(fn1):
    # drop the arc p5 -> t6: t6 can never fire and the sink is unreachable
    arcs = [a for a in fn1.arcs if a != ("p5", "t6")]
    crippled = PetriNet(fn1.places, fn1.transitions, arcs, fn1.initial_marking,
                        fn1.final_marking, fn1.labels, name="fn1-crippled")
    rep = check_soundness(crippled)
    assert not rep.sound
    assert "t6" in rep.dead_transitions
    assert not rep.final_always_reachable


def pump_net() -> PetriNet:
    # t1 pumps tokens into p2 forever, so the reachability graph is unbounded
    return PetriNet(["p1", "p2"], ["t1", "t2"],
                    [("p1", "t1"), ("t1", "p1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p2")],
                    {"p1": 1}, {"p2": 1}, {"t1": "a", "t2": "b"})


def test_soundness_inconclusive_on_cap(monkeypatch):
    """fn1 is bounded with 7 markings, so only the cap makes it inconclusive."""
    import confmon.petri

    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 3)
    rep = check_soundness(bundled_model("fn1"))
    assert rep.inconclusive
    assert not rep.sound
    assert rep.markings_explored == 3


def test_unbounded_net_is_inconclusive_at_the_default_cap(enabled_calls):
    rep = check_soundness(pump_net())
    assert rep.inconclusive
    assert not rep.sound
    # {p1} -> {p1, p2} covers its parent, so the search stops at the first marking
    assert len(enabled_calls) == 1


def test_playout_on_unbounded_net_names_the_place(enabled_calls):
    with pytest.raises(ModelError, match="place 'p2'"):
        playout(pump_net(), 1)
    assert len(enabled_calls) == 1


def test_playout_over_the_state_cap(monkeypatch):
    import confmon.petri

    monkeypatch.setattr(confmon.petri, "DEFAULT_STATE_CAP", 10)
    with pytest.raises(PlayoutError, match="net som has more than 10 reachable markings"):
        playout(bundled_model("som"), 1)


def test_alignment_on_unbounded_net_names_the_place():
    with pytest.raises(AlignmentError, match="place 'p2'.*alignments need a bounded net"):
        optimal_alignment(pump_net(), Trace("c1", ("a", "b")))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_soundness_agrees_with_oracle_on_random_nets(seed):
    net = random_workflow_net(seed, budget=5)
    rep = check_soundness(net)
    seen, fired, can_finish = oracle_reachability(net)
    assert rep.markings_explored == len(seen)
    assert set(rep.dead_transitions) == net.transitions - fired
    assert rep.final_always_reachable == (can_finish >= seen)


def test_playout_deterministic_and_complete(fn1):
    log1 = playout(fn1, 20, seed=42)
    log2 = playout(fn1, 20, seed=42)
    assert log1 == log2
    assert [tr.case_id for tr in log1] == [f"c{i}" for i in range(1, 21)]
    for tr in log1:
        # t6 is the only transition into the sink
        assert tr.events[-1] == "t6"
    assert playout(fn1, 20, seed=43) != log1


def test_playout_zero_traces(fn1):
    assert len(playout(fn1, 0)) == 0
    with pytest.raises(PlayoutError, match="n_traces"):
        playout(fn1, -1)


def test_playout_drop_everything(fn1):
    log = playout(fn1, 5, seed=1, noise=NoiseParams(p_drop=1.0))
    assert all(len(tr) == 0 for tr in log)


def test_playout_duplicate_everything(fn1):
    log = playout(fn1, 5, seed=1, noise=NoiseParams(p_dup=1.0))
    for tr in log:
        assert len(tr) % 2 == 0
        assert tr.events[::2] == tr.events[1::2]


def test_playout_max_steps_exhaustion(fn1):
    # two steps can never reach the sink (shortest run fires five transitions)
    with pytest.raises(PlayoutError, match="cannot reach final marking"):
        playout(fn1, 1, max_steps=2, seed=0)
    with pytest.raises(PlayoutError, match="max_steps"):
        playout(fn1, 1, max_steps=0)


def test_playout_deadlock_reported():
    net = PetriNet(["p1", "p2", "p3"], ["t1"], [("p1", "t1"), ("t1", "p2")],
                   {"p1": 1}, {"p3": 1}, {"t1": "a"})
    with pytest.raises(PlayoutError, match=r"deadlock at marking \{'p2': 1\}"):
        playout(net, 1)
    # the marking lists its places in place order, not in firing order
    net = PetriNet(["a", "b", "c", "z"], ["t1"], [("c", "t1"), ("t1", "a")],
                   {"b": 1, "c": 1}, {"z": 1}, {"t1": "x"})
    with pytest.raises(PlayoutError, match=r"deadlock at marking \{'a': 1, 'b': 1\}"):
        playout(net, 1)


def test_playout_with_unreachable_final_marking():
    """A cycle p1 -> t1 -> p2 -> t2 -> p1 never marks p3: no walk can end, so
    playout says so before walking instead of blaming the step budget."""
    net = PetriNet(["p1", "p2", "p3"], ["t1", "t2"],
                   [("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p1")],
                   {"p1": 1}, {"p3": 1}, {"t1": "a", "t2": "b"}, name="cycle")
    with pytest.raises(PlayoutError) as exc:
        playout(net, 1)
    assert str(exc.value) == (
        "net cycle: final marking {'p3': 1} is not reachable from the initial marking")
    with pytest.raises(PlayoutError, match="not reachable"):
        playout(net, 0)
    # a reachable dead marking is named too
    net = PetriNet(["p1", "p2", "p3"], ["t1"], [("p1", "t1"), ("t1", "p2")],
                   {"p1": 1}, {"p3": 1}, {"t1": "a"}, name="dead")
    with pytest.raises(PlayoutError) as exc:
        playout(net, 1)
    assert str(exc.value) == (
        "net dead: final marking {'p3': 1} is not reachable from the initial marking; "
        "deadlock at marking {'p2': 1}")


@pytest.mark.parametrize("model", ["fn1", "som"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(0.03, 0.03)])
def test_playout_equals_oracle(model, seed, noise):
    net = bundled_model(model)
    log = playout(net, 40, seed=seed, noise=noise)
    assert [(tr.case_id, tr.events) for tr in log] == \
        oracle_playout(net, 40, seed=seed, p_drop=noise.p_drop, p_dup=noise.p_dup)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_playout_equals_oracle_on_random_nets(seed):
    net = random_workflow_net(seed, budget=5)
    log = playout(net, 40, seed=seed, noise=NoiseParams(0.1, 0.1))
    assert [(tr.case_id, tr.events) for tr in log] == \
        oracle_playout(net, 40, seed=seed, p_drop=0.1, p_dup=0.1)


def test_noise_params_validation():
    with pytest.raises(ModelError, match="p_drop"):
        NoiseParams(p_drop=1.5)
    with pytest.raises(ModelError, match="p_dup"):
        NoiseParams(p_dup=-0.1)


def test_bundled_model_unknown_name():
    with pytest.raises(ModelError, match="no bundled model"):
        bundled_model("nope")


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=3), min_size=7, max_size=7),
       pick=st.integers(min_value=0, max_value=6))
def test_firing_preserves_token_delta(counts, pick):
    """Firing any enabled transition changes the total token count by exactly
    |postset| - |preset| and never leaves zero or negative entries."""
    fn1 = bundled_model("fn1")
    marking = {p: c for p, c in zip(fn1.place_order, counts) if c}
    options = sorted(enabled(fn1, marking))
    if not options:
        return
    t = options[pick % len(options)]
    after = fire(fn1, marking, t)
    delta = len(fn1.postset[t]) - len(fn1.preset[t])
    assert sum(after.values()) == sum(marking.values()) + delta
    assert all(v > 0 for v in after.values())
