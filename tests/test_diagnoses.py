from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmon.alignment
import confmon.diagnoses
from confmon.alignment import (CostScheme, fitness_from_cost, misalignments,
                               optimal_alignment, trace_fitness)
from confmon.diagnoses import (DiagnosesMatrix, build_diagnoses,
                               coverage, diagnosis_columns, log_fitness,
                               read_diagnoses, write_diagnoses)
from confmon.errors import LogError
from confmon.eventlog import EventLog, Trace
from confmon.petri import NoiseParams, bundled_model, parse_model, playout

MIXED = EventLog([
    Trace("c1", ("t1", "t2", "t4", "t5", "t6")),
    Trace("c2", ("t1", "t5", "t2", "t4", "t6")),
    Trace("c3", ("t1", "x9", "t3", "t4", "t5", "t6")),
    Trace("c4", ()),
])


def test_columns_are_sorted_labels_plus_reserved(fn1):
    assert diagnosis_columns(fn1) == ("t1", "t2", "t3", "t4", "t5", "t6",
                                      "UNKNOWN", "fitness")


def test_build_keeps_log_order_and_case_ids(fn1):
    diag = build_diagnoses(fn1, MIXED)
    assert diag.columns == diagnosis_columns(fn1)
    assert diag.case_ids == ("c1", "c2", "c3", "c4")
    assert diag.counts.shape == (4, 7)
    assert diag.counts.dtype.kind == "i"
    assert diag.model_id == "fn1"


def test_counter_totals_equal_alignment_cost(fn1):
    """With unit costs every misaligned move costs exactly one, so the counter
    total of a row reproduces the optimal alignment cost of its trace."""
    diag = build_diagnoses(fn1, MIXED)
    for row, tr in zip(diag.counts.tolist(), MIXED):
        cost = optimal_alignment(fn1, tr).cost
        assert sum(row) == cost


def test_frozen_rows(fn1):
    diag = build_diagnoses(fn1, MIXED)
    counts = {cid: dict(zip(diag.columns[:-1], row))
              for cid, row in zip(diag.case_ids, diag.counts.tolist())}
    fitness = dict(zip(diag.case_ids, diag.fitness.tolist()))
    assert fitness["c1"] == 1.0
    assert sum(counts["c1"].values()) == 0
    assert counts["c2"]["t5"] == 2
    assert fitness["c2"] == pytest.approx(0.8)
    assert counts["c3"]["UNKNOWN"] == 1
    assert fitness["c4"] == 0.0
    assert sum(counts["c4"].values()) == 5


def test_vector_and_to_array(fn1):
    diag = build_diagnoses(fn1, MIXED)
    arr = diag.to_array()
    assert arr.shape == (4, 8)
    assert arr[1][diag.columns.index("t5")] == 2.0
    assert arr[1][-1] == pytest.approx(0.8)
    empty = DiagnosesMatrix(diag.columns, (), [], [], "fn1", CostScheme())
    assert empty.to_array().shape == (0, 8)


def test_csv_round_trip(fn1):
    diag = build_diagnoses(fn1, MIXED)
    text = write_diagnoses(diag)
    back = read_diagnoses(text)
    assert back.columns == diag.columns
    assert back.model_id == "fn1"
    assert back.costs == diag.costs
    assert len(back) == len(diag)
    assert back.case_ids == diag.case_ids
    assert back.counts.tolist() == diag.counts.tolist()
    assert back.fitness == pytest.approx(diag.fitness, abs=5e-7)
    # a written file parses back to byte-identical output (6-decimal fitness)
    assert write_diagnoses(back) == text


def test_csv_round_trip_keeps_a_model_id_with_spaces(fn1):
    """The model id is read as everything between model= and costs=, so
    one that holds spaces, as a model file name may, comes back whole."""
    diag = build_diagnoses(fn1, MIXED, CostScheme(c_log=2.0))
    named = DiagnosesMatrix(diag.columns, diag.case_ids, diag.counts, diag.fitness,
                            "my fn1", diag.costs)
    text = write_diagnoses(named)
    assert text.splitlines()[0] == "# confmon-diagnoses v1 model=my fn1 costs=2,1,0,0"
    back = read_diagnoses(text)
    assert back.model_id == "my fn1"
    assert back.costs == named.costs
    assert write_diagnoses(back) == text


def test_csv_carries_costs(fn1):
    # costs that :g renders exactly are written short; seven significant
    # digits do not survive :g, so they are written in full
    for costs, field in ((CostScheme(), "costs=1,1,0,0"),
                         (CostScheme(c_log=2.0, c_model=3.0), "costs=2,3,0,0"),
                         (CostScheme(0.1234567, 1.0, 0.7654321),
                          "costs=0.1234567,1,0.7654321,0")):
        diag = build_diagnoses(fn1, MIXED, costs)
        text = write_diagnoses(diag)
        assert text.splitlines()[0].endswith(f" {field}")
        back = read_diagnoses(text)
        assert back.costs == costs
        assert write_diagnoses(back) == text


def test_read_rejects_malformed_header():
    with pytest.raises(LogError, match="header"):
        read_diagnoses("case,t1,fitness,UNKNOWN\nc1,0,1.0,0\n")
    with pytest.raises(LogError, match="no header"):
        read_diagnoses("# just a comment\n")
    with pytest.raises(LogError, match="line 2: column 'a' appears more than once"):
        read_diagnoses("# confmon-diagnoses v1 model=m\ncase,a,a,UNKNOWN,fitness\nc1,0,0,0,1.0\n")
    # the fourth cost is the sync move's, always 0; the first three must
    # make a CostScheme
    for costs, why in (("1,1,0,0.5", "sync"), ("1,-1,0,0", "positive"),
                       ("nan,1,0,0", "c_log must be finite"),
                       ("1,1,0.1234567891,0", "cost unit finer")):
        text = f"# confmon-diagnoses v1 model=m costs={costs}\ncase,t1,UNKNOWN,fitness\n"
        with pytest.raises(LogError, match=f"line 1: bad costs field 'costs={costs}': .*{why}"):
            read_diagnoses(text)


def test_read_rejects_wrong_width():
    text = "case,t1,UNKNOWN,fitness\nc1,0,0\n"
    with pytest.raises(LogError, match="expected 4 cells"):
        read_diagnoses(text)


def test_read_rejects_non_numeric_cells():
    text = "case,t1,UNKNOWN,fitness\nc1,zero,0,1.0\n"
    with pytest.raises(LogError, match="non-numeric"):
        read_diagnoses(text)


def test_read_rejects_negative_counters():
    text = "case,t1,UNKNOWN,fitness\nc0,0,0,1.0\nc1,-3,0,1.0\n"
    with pytest.raises(LogError, match="line 3: counters must be non-negative"):
        read_diagnoses(text)


@pytest.mark.parametrize("bad", ["7.5", "-0.5", "1.000001"])
def test_read_rejects_fitness_outside_unit_interval(bad):
    text = f"case,t1,UNKNOWN,fitness\nc1,0,0,{bad}\n"
    with pytest.raises(LogError, match=r"line 2: fitness must lie in \[0, 1\]"):
        read_diagnoses(text)


def test_read_rejects_repeated_case_ids():
    text = "case,t1,UNKNOWN,fitness\nc1,0,0,1.0\nc2,1,0,0.5\nc1,0,0,1.0\n"
    with pytest.raises(LogError, match="line 4: repeated case id 'c1'"):
        read_diagnoses(text)


def test_read_accepts_fitness_bounds_and_negative_zero():
    back = read_diagnoses("case,t1,UNKNOWN,fitness\nc1,0,0,0.000000\nc2,-0,0,1.000000\n"
                          "c3,0,0,-0.000000\n")
    assert back.fitness.tolist() == [0.0, 1.0, 0.0]
    assert back.counts.tolist() == [[0, 0], [0, 0], [0, 0]]


def test_read_rejects_counters_beyond_64_bits():
    text = f"case,t1,UNKNOWN,fitness\nc1,{2 ** 64},0,1.0\n"
    with pytest.raises(LogError, match="64 bits"):
        read_diagnoses(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_rejects_non_finite_fitness(bad):
    text = f"case,t1,UNKNOWN,fitness\nc1,0,0,1.0\nc2,0,0,{bad}\n"
    with pytest.raises(LogError, match="line 3: fitness must be finite"):
        read_diagnoses(text)


def test_coverage_needs_alignment_lengths(fn1):
    diag = build_diagnoses(fn1, MIXED)
    assert 0.0 < diag.coverage() < 1.0
    with pytest.raises(LogError, match="alignment lengths"):
        read_diagnoses(write_diagnoses(diag)).coverage()


def test_playout_diagnoses_are_clean(fn1):
    log = playout(fn1, 25, seed=4)
    diag = build_diagnoses(fn1, log)
    arr = diag.to_array()
    assert np.all(arr[:, :-1] == 0.0)
    assert np.all(arr[:, -1] == 1.0)


# -- one alignment per variant ------------------------------------------------


@pytest.fixture(scope="module")
def noisy_som_log(som):
    log = playout(som, 150, seed=8, noise=NoiseParams(0.05, 0.05))
    n_variants = len({tr.events for tr in log})
    assert n_variants < len(log) - 20  # plenty of duplicated variants
    return log


def _per_trace_reference(net, log, costs):
    """Diagnoses and total moves with one alignment per trace."""
    columns = diagnosis_columns(net)
    counts, fitness, moves = [], [], 0
    for tr in log:
        alignment = optimal_alignment(net, tr, costs)
        per_activity = misalignments(alignment, net.visible_labels)
        counts.append([per_activity[col] for col in columns[:-1]])
        fitness.append(fitness_from_cost(net, tr, alignment.cost, costs))
        moves += len(alignment)
    return DiagnosesMatrix(columns, tuple(tr.case_id for tr in log), counts, fitness,
                           net.name, costs, moves)


COST_SCHEMES = [CostScheme(), CostScheme(2.0, 3.0, 0.5), CostScheme(0.7, 1.3, 0.1)]


def assert_matches_per_trace_reference(net, log, costs):
    diag = build_diagnoses(net, log, costs)
    ref = _per_trace_reference(net, log, costs)
    assert write_diagnoses(diag) == write_diagnoses(ref)
    assert diag.moves == ref.moves
    assert diag.fitness.tolist() == ref.fitness.tolist()
    assert diag.counts.tolist() == ref.counts.tolist()
    assert diag.counts.dtype == ref.counts.dtype


@pytest.fixture(scope="module")
def noisy_fn1_log(fn1):
    """Noisy fn1 playout plus the MIXED traces, which hold an unknown
    activity and an empty trace."""
    log = playout(fn1, 150, seed=8, noise=NoiseParams(0.1, 0.1))
    return EventLog(list(log) + [Trace(f"m{tr.case_id}", tr.events) for tr in MIXED])


@pytest.mark.parametrize("costs", COST_SCHEMES)
def test_variant_memo_matches_per_trace_alignment(fn1, som, noisy_fn1_log, noisy_som_log,
                                                  costs):
    assert_matches_per_trace_reference(fn1, noisy_fn1_log, costs)
    assert_matches_per_trace_reference(som, noisy_som_log, costs)


@pytest.mark.parametrize("lane_bytes", [None, 1], ids=["tables", "heap"])
@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_logs_match_per_trace_alignment(fn1, som, noisy_fn1_log, noisy_som_log, seed,
                                                 lane_bytes, monkeypatch):
    """build_diagnoses hands align_variants the variants in log order, so a
    shuffled log is another input order, with many variants of each length.
    With _LANE_BYTES = 1 no net gets pass arrays and every variant is
    aligned on the heap."""
    if lane_bytes is not None:
        monkeypatch.setattr(confmon.alignment, "_LANE_BYTES", lane_bytes)
    for net, log in ((fn1, noisy_fn1_log), (som, noisy_som_log)):
        traces = list(log)
        random.Random(seed).shuffle(traces)
        lengths = [len(events) for events in {tr.events for tr in traces}]
        assert len(set(lengths)) < len(lengths) // 4
        assert_matches_per_trace_reference(net, EventLog(traces), CostScheme(0.7, 1.3, 0.1))


@pytest.mark.parametrize("block", [1, 7])
def test_counting_in_small_blocks_matches_per_trace_alignment(som, noisy_som_log, block,
                                                              monkeypatch):
    monkeypatch.setattr(confmon.alignment, "_COUNT_BLOCK", block)
    assert_matches_per_trace_reference(som, noisy_som_log, CostScheme(0.7, 1.3, 0.1))


EDGE_LOGS = {
    "empty log": EventLog([]),
    "empty traces": EventLog([Trace("c1", ()), Trace("c2", ("t1",)), Trace("c3", ())]),
    "unknown only": EventLog([Trace("c1", ("x1", "x2", "x1")), Trace("c2", ("zz",))]),
}


@pytest.mark.parametrize("costs", COST_SCHEMES)
@pytest.mark.parametrize("model", ["fn1", "som"])
@pytest.mark.parametrize("name", sorted(EDGE_LOGS))
def test_edge_logs_match_per_trace_alignment(name, model, costs, request):
    assert_matches_per_trace_reference(request.getfixturevalue(model), EDGE_LOGS[name], costs)


def test_worst_case_of_zero_gives_fitness_one():
    """An empty trace on a net that completes by a free silent move has a
    worst-case cost of 0, so 1 - cost / worst is undefined; its optimal cost
    is 0 too, and it replays perfectly."""
    net = parse_model("place a\nplace b\ntrans s silent\ntrans x label x\n"
                      "arc a s\narc s b\narc a x\narc x b\ninit a 1\nfinal b 1\n", "skip")
    log = EventLog([Trace("c1", ()), Trace("c2", ("x",)), Trace("c3", ("y",))])
    assert trace_fitness(net, ()) == 1.0
    assert build_diagnoses(net, log).fitness.tolist() == [1.0, 1.0, 0.0]
    assert_matches_per_trace_reference(net, log, CostScheme())


def test_one_alignment_per_distinct_trace(som, noisy_som_log, monkeypatch):
    aligned = []
    real = confmon.alignment.optimal_alignment

    def counting(net, trace, *args, **kwargs):
        aligned.append(tuple(trace))
        return real(net, trace, *args, **kwargs)

    monkeypatch.setattr(confmon.alignment, "optimal_alignment", counting)
    build_diagnoses(som, noisy_som_log)
    assert sorted(aligned) == sorted({tr.events for tr in noisy_som_log})


def test_coverage_and_log_fitness_match_per_trace_reference(som, noisy_som_log):
    ref = _per_trace_reference(som, noisy_som_log, CostScheme())
    fitness = sum(ref.fitness.tolist()) / len(ref)
    misaligned = sum(sum(row) for row in ref.counts.tolist())
    assert log_fitness(som, noisy_som_log) == fitness
    assert coverage(som, noisy_som_log) == 1.0 - misaligned / ref.moves


@settings(max_examples=12, deadline=None)
@given(model=st.sampled_from(["fn1", "som"]), seed=st.integers(0, 10_000),
       p_drop=st.floats(0.0, 0.4), p_dup=st.floats(0.0, 0.4))
def test_fitness_lies_in_unit_interval(model, seed, p_drop, p_dup):
    net = bundled_model(model)
    log = playout(net, 8, seed=seed, noise=NoiseParams(p_drop, p_dup))
    fitness = build_diagnoses(net, log).fitness
    assert np.all((fitness >= 0.0) & (fitness <= 1.0))
