from __future__ import annotations

import hashlib
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confmon.detect
from confmon.alignment import CostScheme
from confmon.cli import main
from confmon.detect import (DETECTOR_KINDS, Detector, _ae_init, _distinct_rows, _normalize,
                            _pairwise, _percentile, _Stream, _train_ae, ae_gradient_check,
                            classify, default_ae_layers, load_detector, save_detector,
                            score_matrix, train, train_group)
from confmon.diagnoses import DiagnosesMatrix, build_diagnoses
from confmon.errors import DetectError
from confmon.eventlog import EventLog, split_log, write_log
from confmon.inject import build_eval_sets
from confmon.petri import NoiseParams, playout

from oracle import oracle_fit_dbscan, oracle_score, oracle_train_ae

COLS = ("a", "UNKNOWN", "fitness")


def toy_matrix(rows, columns=COLS):
    """Matrix of (a, unk, fit) rows; case ids are the row positions."""
    rows = list(rows)
    return DiagnosesMatrix(columns, tuple(f"r{i}" for i in range(len(rows))),
                           [(a, unk) for a, unk, _ in rows], [fit for _, _, fit in rows],
                           "toy", CostScheme())


def score_one(det, a, unk=0, fit=1.0):
    return score_matrix(det, toy_matrix([(a, unk, fit)])).tolist()[0]


def classify_one(det, a, unk=0, fit=1.0):
    return classify(det, [score_one(det, a, unk, fit)])[0]


def take(diag, idx):
    """The rows of diag at the given positions, as a new matrix."""
    idx = np.asarray(idx, dtype=int)
    return DiagnosesMatrix(diag.columns, tuple(diag.case_ids[i] for i in idx),
                           diag.counts[idx], diag.fitness[idx], diag.model_id, diag.costs)


@pytest.fixture(scope="module")
def line_train():
    return toy_matrix((i, 0, 1.0) for i in range(10))


@pytest.fixture(scope="module")
def line_val():
    return toy_matrix((i, 0, 1.0) for i in range(10))


@pytest.fixture(scope="module")
def fn1_diagnoses(fn1):
    log = playout(fn1, 50, seed=3, noise=NoiseParams(0.05, 0.05))
    train_log, val_log, _ = split_log(log, seed=3)
    return build_diagnoses(fn1, train_log), build_diagnoses(fn1, val_log)


def test_ft_scores_one_minus_fitness(line_train, line_val):
    det = train("ft", line_train, line_val)
    assert score_one(det, 0, fit=1.0) == 0.0
    assert score_one(det, 0, fit=0.25) == 0.75


def test_threshold_is_validation_percentile(line_train):
    val = toy_matrix((0, 0, 1.0 - i / 100.0) for i in range(20))
    det = train("ft", line_train, val, quantile=95.0)
    scores = [i / 100.0 for i in range(20)]
    assert det.threshold == pytest.approx(np.percentile(scores, 95.0))
    det100 = train("ft", line_train, val, quantile=100.0)
    assert det100.threshold == pytest.approx(0.19)


def test_classification_is_strictly_above_threshold(line_train, line_val):
    det = train("ft", line_train, line_val, quantile=100.0)
    # every validation trace fits perfectly, so the threshold is exactly zero
    assert det.threshold == 0.0
    assert classify_one(det, 3, fit=1.0) == "normal"
    assert classify_one(det, 3, fit=0.999) == "anomalous"
    assert classify(det, [0.0, 1e-12, -1.0]) == ["normal", "anomalous", "normal"]
    assert classify(det, np.array([])) == []


def test_dbscan_eps_heuristic_frozen(line_train, line_val):
    """Ten training rows on a line normalize to 0, 1/9, ..., 1; the distance
    to the fourth-nearest other row is 2/9 inside, 3/9 and 4/9 at the rim, and
    its 90th percentile lands on 4/9."""
    det = train("dbscan", line_train, line_val)
    assert det.state["eps"] == pytest.approx(4.0 / 9.0)
    assert det.state["cores"].shape[0] == 10
    assert det.state["n_clusters"] == 1
    assert det.threshold == 0.0
    # counters are integers, so the probe sits 1/18 off the core at a = 4
    # along the fitness column, which is constant in training and unscaled
    assert score_one(det, 4, fit=1.0 - 1.0 / 18.0) == pytest.approx(1.0 / 18.0)
    assert classify_one(det, 5) == "normal"
    assert classify_one(det, 20) == "anomalous"


def test_normalization_clamps_outliers(line_train, line_val):
    # 20 and 100 both clip to 1.5 after min-max scaling, pinning the score
    det = train("dbscan", line_train, line_val)
    assert score_one(det, 20) == score_one(det, 100) == pytest.approx(0.5)


def test_constant_column_normalization(line_train, line_val):
    """UNKNOWN and fitness are constant in training; their range falls back to
    one, so a deviation passes through as a raw (clamped) offset."""
    det = train("dbscan", line_train, line_val)
    assert score_one(det, 0, unk=1) == pytest.approx(1.0)
    assert score_one(det, 0, unk=50) == pytest.approx(1.5)


def test_dbscan_explicit_eps_and_no_core_error(line_train, line_val):
    det = train("dbscan", line_train, line_val, {"eps": 10.0})
    assert det.state["eps"] == 10.0
    with pytest.raises(DetectError, match="no core points"):
        train("dbscan", line_train, line_val, {"eps": 1e-6})


def test_dbscan_needs_rows_to_estimate_eps(line_val):
    tiny = toy_matrix((i, 0, 1.0) for i in range(5))
    with pytest.raises(DetectError, match="estimate epsilon"):
        train("dbscan", tiny, line_val, {"min_pts": 5})
    # an explicit epsilon sidesteps the estimate
    det = train("dbscan", tiny, line_val, {"min_pts": 5, "eps": 5.0})
    assert det.state["cores"].shape[0] == 5


@pytest.mark.parametrize("eps", [float("inf"), -float("inf"), float("nan"), "0.5", [0.5]])
def test_dbscan_eps_must_be_a_finite_number(line_train, line_val, eps):
    with pytest.raises(DetectError, match=f"eps must be a finite number, got {re.escape(repr(eps))}"):
        train("dbscan", line_train, line_val, {"eps": eps})


def test_dbscan_min_pts_must_be_positive(line_train, line_val):
    with pytest.raises(DetectError, match="min_pts must be an integer >= 1, got 0"):
        train("dbscan", line_train, line_val, {"min_pts": 0})


def test_default_ae_layers():
    assert default_ae_layers(4) == (4, 2, 2, 2, 4)
    assert default_ae_layers(5) == (5, 3, 2, 3, 5)
    assert default_ae_layers(8) == (8, 4, 2, 4, 8)
    assert default_ae_layers(16) == (16, 8, 4, 8, 16)


def test_ae_gradient_check_small():
    assert ae_gradient_check([4, 2, 4], seed=0) < 1e-4
    # the widest network training builds, and one with no hidden layer
    assert ae_gradient_check(default_ae_layers(16), seed=0) < 1e-4
    assert ae_gradient_check([3, 3], seed=0) < 1e-4
    with pytest.raises(DetectError, match="at least"):
        ae_gradient_check([4])


@pytest.mark.parametrize("layers, seed, want", [
    ((4, 2, 4), 0, 5.590778776278037e-09),
    ((6, 3, 2, 3, 6), 1, 6.240082294140788e-10),
    ((5, 3, 5), 7, 3.736553709402494e-10),
    ((3, 1, 3), 2, 1.8667373894483998e-10),  # a one-wide layer's bias gradient
])
def test_ae_gradient_check_is_pinned(layers, seed, want):
    """The check runs on the parameter layout training uses; these are the
    bits it gave on separate weight and bias arrays."""
    got = ae_gradient_check(layers, seed=seed)
    assert type(got) is np.float64 and got == want


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_ae_gradient_check_rejects_seeds_an_ae_cannot_take(seed):
    # numpy's default_rng raised a bare ValueError for -1 and a TypeError for 1.5
    with pytest.raises(DetectError, match=re.escape(f"got seed {seed!r}")):
        ae_gradient_check([3, 2, 3], seed=seed)


# 0-299, the edges of one and two 32-bit words, and 70-bit seeds of three
STREAM_SEEDS = ([*range(300), 2**32 - 1, 2**32, 2**64 + 3]
                + [random.Random(70).getrandbits(70) | 1 << 69 for _ in range(8)])


def test_stream_draws_what_default_rng_draws():
    """One _Stream per seed draws the bits np.random.default_rng(seed) draws,
    over consecutive draws: the initial weights of every default layer shape
    of a 16-column model, then ae_gradient_check's input draw; for a
    31-column model too on every tenth seed. numpy integer seeds give the
    stream of their value."""
    for i, seed in enumerate(STREAM_SEEDS):
        for width in (16, 31) if i % 10 == 0 else (16,):
            got, want = ([*_ae_init(default_ae_layers(width), rng)[0],
                          rng.uniform(0.0, 1.0, size=(3, width))]
                         for rng in (_Stream(seed), np.random.default_rng(seed)))
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (seed, width)
    for seed in (np.int64(7), np.uint32(7), np.uint64(2**64 - 1)):
        assert (_Stream(seed).uniform(-1.0, 1.0, (4, 5)).tobytes()
                == np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 5)).tobytes())


def test_percentile_equals_np_percentile_bit_for_bit():
    """_percentile gives np.percentile's bits on 10 000 random vectors of 1-60
    values, drawn with ties, -0.0, +-inf and NaN among them, at q of 0, 90,
    95, 100 and uniform in [0, 100]."""
    rng = np.random.default_rng(2024)
    specials = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
    for _ in range(10_000):
        n = int(rng.integers(1, 61))
        values = rng.normal(size=n).round(int(rng.integers(0, 3)))  # rounding makes ties
        mask = rng.random(n) < rng.choice([0.0, 0.1, 0.5])
        values[mask] = rng.choice(specials, size=int(mask.sum()))
        q = float(rng.choice([0.0, 90.0, 95.0, 100.0, rng.uniform(0.0, 100.0)]))
        with np.errstate(invalid="ignore"):  # numpy warns on inf - inf
            want = np.percentile(values, q)
        got = _percentile(values, q)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values, q, got, want)


@pytest.mark.parametrize("layers, step, named", [
    ([3, 2, 3], float("nan"), "step must be a finite number > 0, got nan"),
    ([3, 2, 3], float("inf"), "step must be a finite number > 0, got inf"),
    ([3, 2, 3], 0, "step must be a finite number > 0, got 0"),
    ([0, 0], 1e-5, "layer size must be an integer >= 1, got 0"),
    ([4, -1, 4], 1e-5, "layer size must be an integer >= 1, got -1"),
    ([2.5, 2], 1e-5, "layer size must be an integer >= 1, got 2.5"),
])
def test_ae_gradient_check_rejects_bad_input(layers, step, named):
    # a nan step used to return 0.0, passing any gradient; the others
    # returned 1.0, truncated a size or raised a bare Python error
    with pytest.raises(DetectError, match=re.escape(named)):
        ae_gradient_check(layers, step=step)


def test_ae_gradient_error_shrinks_with_step():
    # central differences converge quadratically, so a hundredfold smaller
    # step should not make the agreement worse
    coarse = ae_gradient_check([3, 2, 3], seed=1, step=1e-3)
    fine = ae_gradient_check([3, 2, 3], seed=1, step=1e-5)
    assert fine <= coarse


def test_ae_training_loss_is_non_increasing(fn1_diagnoses):
    d_train, d_val = fn1_diagnoses
    det = train("ae", d_train, d_val, seed=0)
    history = det.state["loss_history"]
    assert len(history) == 500
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]


def test_ae_is_seed_deterministic(fn1_diagnoses):
    d_train, d_val = fn1_diagnoses
    a = train("ae", d_train, d_val, seed=1)
    b = train("ae", d_train, d_val, seed=1)
    c = train("ae", d_train, d_val, seed=2)
    probe = take(d_val, [0])
    assert score_matrix(a, probe)[0] == score_matrix(b, probe)[0]
    assert score_matrix(a, probe)[0] != score_matrix(c, probe)[0]


def wide_matrix(n, width, seed):
    """n rows of width - 1 random counters and a fitness column."""
    rng = np.random.default_rng(seed)
    columns = tuple(f"c{j}" for j in range(width - 2)) + ("UNKNOWN", "fitness")
    return DiagnosesMatrix(columns, tuple(f"r{i}" for i in range(n)),
                           rng.integers(0, 5, size=(n, width - 1)),
                           rng.uniform(0.4, 1.0, size=n), "toy", CostScheme())


def assert_ae_matches_oracle(d_train, d_val, params=None, seed=0):
    """train("ae") equals the per-array Adam reference bit for bit: every
    weight and bias array and the loss history."""
    det = train("ae", d_train, d_val, params, seed=seed)
    rate = {k: v for k, v in (params or {}).items() if k in ("lr", "epochs")}
    weights, biases, history = oracle_train_ae(d_train.to_array(), det.state["layers"],
                                               seed=seed, **rate)
    assert det.state["loss_history"] == history
    got, want = det.state["weights"] + det.state["biases"], weights + biases
    assert [a.shape for a in got] == [a.shape for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_ae_training_matches_oracle(fn1_diagnoses, som_diagnoses):
    assert_ae_matches_oracle(*fn1_diagnoses)
    assert_ae_matches_oracle(*som_diagnoses[:2], seed=11)
    # three columns give the default layers (3, 2, 2, 2, 3)
    toy = toy_matrix((i % 4, i % 3, 1.0 - (i % 5) / 10.0) for i in range(24))
    assert_ae_matches_oracle(toy, toy, seed=4)
    assert_ae_matches_oracle(*fn1_diagnoses, {"layers": (8, 5, 8)}, seed=2)
    # no hidden layer, so the flat buffer of hidden activations is empty
    assert_ae_matches_oracle(*fn1_diagnoses, {"layers": (8, 8)}, seed=3)
    assert_ae_matches_oracle(*fn1_diagnoses, {"epochs": 1}, seed=5)
    # 16 columns at the monitor's training size, over fewer epochs
    wide = wide_matrix(1200, 16, seed=7)
    assert_ae_matches_oracle(wide, wide, {"epochs": 20}, seed=6)
    # rates this large overflow the loss at the same epoch in both; train
    # reports it by its DetectError alone, with no numpy RuntimeWarning
    d_train, d_val = fn1_diagnoses
    for lr, epoch in [(4e152, 3), (1e153, 2), (1e154, 2), (1e155, 2)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DetectError, match=f"diverged at epoch {epoch} ") as got:
                train("ae", d_train, d_val, {"lr": lr})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DetectError) as want:
                oracle_train_ae(d_train.to_array(), default_ae_layers(8), lr)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seeds", [(7,), (5, 0, 12)])
def test_stacked_ae_matches_oracle_and_one_seed_training(seeds):
    # one matrix per slice, all of one shape, each slice with its own seed;
    # bit-identity rests on numpy running one gemm per slice of a stack
    pairs = [(wide_matrix(40, 6, seed=s + 1), wide_matrix(12, 6, seed=s + 100))
             for s in seeds]
    dets = train_group("ae", pairs, {"epochs": 150}, seeds=seeds)
    assert [det.seed for det in dets] == list(seeds)
    for det, (d_train, d_val), seed in zip(dets, pairs, seeds):
        weights, biases, history = oracle_train_ae(d_train.to_array(), det.state["layers"],
                                                   epochs=150, seed=seed)
        assert det.state["loss_history"] == history
        got, want = det.state["weights"] + det.state["biases"], weights + biases
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        alone = train("ae", d_train, d_val, {"epochs": 150}, seed=seed)
        assert det.state["loss_history"] == alone.state["loss_history"]
        assert save_detector(det) == save_detector(alone)


def test_stacked_ae_on_the_experiment_shape_matches_one_seed_training(fn1_diagnoses):
    # the same training rows in every slice, as seeds of one experiment share
    # a shape; the default 500 epochs
    d_train, d_val = fn1_diagnoses
    dets = train_group("ae", [(d_train, d_val)] * 3, seeds=(0, 1, 2))
    for seed, det in enumerate(dets):
        alone = train("ae", d_train, d_val, seed=seed)
        assert det.state["loss_history"] == alone.state["loss_history"]
        assert save_detector(det) == save_detector(alone)


def assert_stack_matches_oracle(matrices, layers, seeds, epochs):
    """_train_ae on the stack of the normalized matrices equals
    oracle_train_ae on each of them, bit for bit."""
    xs = [m.to_array() for m in matrices]
    stack = np.stack([_normalize(x.min(axis=0), x.max(axis=0), x) for x in xs])
    for x, seed, (weights, biases, history) in zip(
            xs, seeds, _train_ae(stack, layers, 1e-3, epochs, seeds)):
        want_w, want_b, want_history = oracle_train_ae(x, layers, epochs=epochs, seed=seed)
        assert history == want_history
        assert [a.tobytes() for a in weights + biases] == [a.tobytes() for a in want_w + want_b]


def test_ae_bias_gradients_match_oracle_on_edge_shapes():
    # A bias gradient sums its delta's rows in the reference's order: row
    # after row over several columns, pairwise down a one-wide column. These
    # are the shapes where the two orders, or a sum's loop order, part.
    rows = wide_matrix(40, 3, seed=9)
    # a width-1 bottleneck, through train and through _train_ae
    assert_ae_matches_oracle(rows, rows, {"layers": (3, 1, 3), "epochs": 120}, seed=1)
    assert_stack_matches_oracle([rows], (3, 1, 3), [1], 120)
    # one training row, below train's minimum, so through _train_ae alone
    one = take(wide_matrix(8, 16, seed=4), [0])
    assert_stack_matches_oracle([one], default_ae_layers(16), [2], 50)
    assert_stack_matches_oracle([take(rows, [3])], (3, 1, 3), [2], 50)
    # a stack of 5 seeds at the experiment's shape, and with the bottleneck
    five = [wide_matrix(120, 16, seed=s + 20) for s in range(5)]
    dets = train_group("ae", [(m, m) for m in five], {"epochs": 60}, seeds=range(5))
    for det, m in zip(dets, five):
        weights, biases, history = oracle_train_ae(m.to_array(), det.state["layers"],
                                                   epochs=60, seed=det.seed)
        assert det.state["loss_history"] == history
        assert ([a.tobytes() for a in det.state["weights"] + det.state["biases"]]
                == [a.tobytes() for a in weights + biases])
    assert_stack_matches_oracle(five, default_ae_layers(16), range(5), 60)
    narrow = [wide_matrix(30, 3, seed=s + 40) for s in range(5)]
    assert_stack_matches_oracle(narrow, (3, 1, 3), range(5), 60)


def test_stack_diverges_at_the_first_non_finite_slice():
    # alone at lr 4e152, seed 3 diverges at epoch 2, seed 0 at epoch 3, and
    # seed 4 not at all
    m = {k: wide_matrix(30, 6, seed=k) for k in (0, 3, 4)}
    for order, message in [((4, 0, 3), "of seed 3 diverged at epoch 2 "),
                           ((4, 0), "of seed 0 diverged at epoch 3 ")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DetectError, match=f"autoencoder training {message}"):
                train_group("ae", [(m[k], m[k]) for k in order], {"lr": 4e152},
                            seeds=order)


def test_train_group_rejects_bad_groups(monkeypatch):
    def never(*args):
        raise AssertionError("training started before the group was checked")

    monkeypatch.setattr(confmon.detect, "_train_ae", never)
    a, b = wide_matrix(20, 4, seed=1), wide_matrix(21, 4, seed=2)
    with pytest.raises(DetectError, match=re.escape("one shape, got [(20, 4), (21, 4)]")):
        train_group("ae", [(a, a), (b, b)], seeds=(0, 1))
    with pytest.raises(DetectError, match="got 1 pairs and 2 seeds"):
        train_group("ae", [(a, a)], seeds=(0, 1))
    with pytest.raises(DetectError, match="got 0 pairs and 0 seeds"):
        train_group("ft", [], seeds=())


def test_ae_layer_mismatch_rejected(line_train, line_val):
    with pytest.raises(DetectError, match="feature columns"):
        train("ae", line_train, line_val, {"layers": (4, 2, 4)})


@pytest.mark.parametrize("params, named", [
    ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    ({"epochs": -3}, "epochs must be an integer >= 1, got -3"),
    ({"epochs": 2.7}, "epochs must be an integer >= 1, got 2.7"),
    ({"lr": 0}, "lr must be a finite number > 0, got 0"),
    ({"lr": -1e-3}, "lr must be a finite number > 0, got -0.001"),
    ({"lr": float("nan")}, "lr must be a finite number > 0, got nan"),
    ({"layers": (4, 0, 4)}, "layer size must be an integer >= 1, got 0"),
    ({"layers": (4, -2, 4)}, "layer size must be an integer >= 1, got -2"),
    ({"layers": 4}, "layers must be a sequence of sizes, got 4"),
])
def test_ae_rejects_bad_params(params, named):
    # each used to train silently (no epochs, a truncated count, no or
    # uphill steps, a zero-width layer) or fail without naming the value
    rows = wide_matrix(20, 4, seed=1)
    with pytest.raises(DetectError, match=re.escape(named)):
        train("ae", rows, rows, params)


def test_unknown_params_rejected(line_train, line_val):
    with pytest.raises(DetectError, match="unknown ft parameters"):
        train("ft", line_train, line_val, {"bogus": 1})


@pytest.mark.parametrize("kind, params, named", [
    ("ae", {"epoch": 5}, "unknown ae parameters: ['epoch']"),
    ("ae", {"epochs": 5, "min_pts": 3}, "unknown ae parameters: ['min_pts']"),
    ("dbscan", {"epochs": 5}, "unknown dbscan parameters: ['epochs']"),
    # min_pts used to raise a ValueError or a TypeError, or be cut to 2
    ("dbscan", {"min_pts": "x"}, "dbscan min_pts must be an integer >= 1, got 'x'"),
    ("dbscan", {"min_pts": None}, "dbscan min_pts must be an integer >= 1, got None"),
    ("dbscan", {"min_pts": 2.7}, "dbscan min_pts must be an integer >= 1, got 2.7"),
])
def test_unknown_params_rejected_before_fitting(kind, params, named, monkeypatch):
    # a misspelt "epoch" used to train the default 500 epochs, then raise
    def never(*args):
        raise AssertionError("fitting started before the parameters were checked")

    monkeypatch.setattr(confmon.detect, "_train_ae", never)
    monkeypatch.setattr(confmon.detect, "_fit_dbscan", never)
    rows = wide_matrix(20, 4, seed=1)
    with pytest.raises(DetectError, match=re.escape(named)):
        train(kind, rows, rows, params)


def test_train_input_validation(line_train, line_val):
    with pytest.raises(DetectError, match="unknown detector kind"):
        train("svm", line_train, line_val)
    with pytest.raises(DetectError, match="at least 5 training rows"):
        train("ft", toy_matrix([(1, 0, 1.0)]), line_val)
    with pytest.raises(DetectError, match="validation diagnoses are empty"):
        train("ft", line_train, toy_matrix([]))
    with pytest.raises(DetectError, match="quantile"):
        train("ft", line_train, line_val, quantile=101.0)
    other = toy_matrix([(0, 0, 1.0)], columns=("b", "UNKNOWN", "fitness"))
    with pytest.raises(DetectError, match="different columns"):
        train("ft", line_train, other)


def test_score_rejects_mismatched_rows(line_train, line_val):
    det = train("ft", line_train, line_val)
    # the same counters in another column order are a different schema
    permuted = toy_matrix([(0, 0, 1.0)], columns=("UNKNOWN", "a", "fitness"))
    with pytest.raises(DetectError, match="do not match"):
        score_matrix(det, permuted)
    other = toy_matrix([(0, 0, 1.0)], columns=("b", "UNKNOWN", "fitness"))
    with pytest.raises(DetectError, match="columns do not match"):
        score_matrix(det, other)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_save_load_round_trip_scores(kind, fn1_diagnoses):
    d_train, d_val = fn1_diagnoses
    det = train(kind, d_train, d_val, seed=0)
    back = load_detector(save_detector(det))
    assert back.kind == det.kind
    assert back.columns == det.columns
    assert back.threshold == det.threshold
    assert back.model_id == det.model_id
    assert score_matrix(back, d_val).tobytes() == score_matrix(det, d_val).tobytes()


def _oracle_scores(det, diag):
    return [oracle_score(det, [*row, fit])
            for row, fit in zip(diag.counts.tolist(), diag.fitness.tolist())]


@pytest.fixture(scope="module")
def som_diagnoses(som):
    """Training, validation and test diagnoses of a noisy som log."""
    normal = playout(som, 120, seed=11, noise=NoiseParams(0.05, 0.05))
    return tuple(build_diagnoses(som, part) for part in split_log(normal, seed=11))


@pytest.fixture(scope="module")
def som_scoring(som, som_diagnoses):
    """Detectors of every kind trained on a noisy som log, and two matrices
    to score: the noisy normal rows and the all-injected set."""
    d_train, d_val, d_test = som_diagnoses
    injected = build_eval_sets(playout(som, 60, seed=1011), 3.0, seed=11)["all"]
    targets = (d_test, build_diagnoses(som, injected))
    dets = {kind: train(kind, d_train, d_val, seed=11) for kind in DETECTOR_KINDS}
    return dets, targets


def test_score_matrix_matches_row_scores(fn1_diagnoses, som_scoring, monkeypatch):
    """score_matrix equals the per-row reference bit for bit: dbscan on fn1,
    and every kind on a noisy som log and its all-injected set, under the
    default block budget and one of three ae rows (one dbscan row) a block."""
    d_train, d_val = fn1_diagnoses
    det = train("dbscan", d_train, d_val)
    assert score_matrix(det, d_val).tolist() == _oracle_scores(det, d_val)
    dets, targets = som_scoring
    for budget in (confmon.detect._BLOCK_ELEMENTS, 3 * sum(dets["ae"].state["layers"])):
        monkeypatch.setattr(confmon.detect, "_BLOCK_ELEMENTS", budget)
        for diag in targets:
            assert len(np.unique(diag.to_array(), axis=0)) < len(diag)  # rows repeat
            for det in dets.values():
                assert score_matrix(det, diag).tolist() == _oracle_scores(det, diag)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_row_score_does_not_depend_on_its_batch(kind, som_scoring):
    dets, targets = som_scoring
    det = dets[kind]
    diag = targets[1]
    full = score_matrix(det, diag)
    n = len(diag)
    order = np.random.default_rng(0).permutation(n)
    assert score_matrix(det, take(diag, order)).tobytes() == full[order].tobytes()
    for i in (0, n // 2, n - 1):
        assert score_matrix(det, take(diag, [i])).tobytes() == full[[i]].tobytes()
        assert score_matrix(det, take(diag, [i, i, i])).tobytes() == full[[i, i, i]].tobytes()


def test_empty_matrix_scores_empty(line_train, line_val):
    for kind in DETECTOR_KINDS:
        det = train(kind, line_train, line_val, seed=0)
        assert score_matrix(det, toy_matrix([])).shape == (0,)


_toy_rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3),
                               st.floats(0.0, 1.0, allow_nan=False)),
                     min_size=6, max_size=14)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
@settings(max_examples=8, deadline=None)
@given(train_rows=_toy_rows, probe_rows=_toy_rows)
def test_save_load_keeps_scores_bit_identical(kind, train_rows, probe_rows):
    params = {"epochs": 25} if kind == "ae" else None
    d_train = toy_matrix(train_rows)
    det = train(kind, d_train, d_train, params, seed=0)
    back = load_detector(save_detector(det))
    # probes reach past the training range, so clamping is exercised too
    probe = toy_matrix([(3 * a, 2 * unk, fit) for a, unk, fit in probe_rows])
    assert back.threshold == det.threshold
    assert score_matrix(back, probe).tobytes() == score_matrix(det, probe).tobytes()


def test_load_rejects_malformed_files():
    with pytest.raises(DetectError, match="not a detector file"):
        load_detector("something else\n")
    with pytest.raises(DetectError, match="^line 2: expected key = value, got 'nonsense'"):
        load_detector("confmon-detector v1\nnonsense\n")
    with pytest.raises(DetectError, match="missing field"):
        load_detector("confmon-detector v1\nkind=ft\n")
    with pytest.raises(DetectError, match="unknown detector kind"):
        load_detector("confmon-detector v1\nkind=svm\nmodel=m\n")
    # the line number counts blank lines
    with pytest.raises(DetectError, match="^line 4: key 'threshold' given more than once"):
        load_detector("confmon-detector v1\nthreshold=1.0\n\nthreshold=0.5\n")


def test_load_refuses_a_field_save_detector_does_not_write(line_train, line_val):
    text = save_detector(train("ft", line_train, line_val))
    lines = text.splitlines()
    with pytest.raises(DetectError, match=f"^line {len(lines) + 2}: unknown field 'colour'$"):
        load_detector(text + "\ncolour=red\n")


def test_load_strips_keys_and_values(line_train, line_val):
    text = save_detector(train("ft", line_train, line_val))
    assert "kind=ft\n" in text
    spaced = text.replace("kind=ft\n", "kind = ft\n")
    assert save_detector(load_detector(spaced)) == text


def test_load_refuses_a_core_beyond_the_cores_shape(saved_detectors):
    lines = saved_detectors["dbscan"].splitlines()
    shape = next(line for line in lines if line.startswith("cores_shape="))
    rows, cols = shape.split("=")[1].split("x")
    assert int(rows) >= 2
    # keep two cores, then add a third the shape does not cover
    two = [line.replace(shape, f"cores_shape=2x{cols}") for line in lines
           if not line.startswith("core") or line.split("=")[0] in ("cores_shape", "core0",
                                                                    "core1")]
    det = load_detector("\n".join(two) + "\n")
    assert det.state["cores"].shape == (2, int(cols))
    core0 = next(line for line in two if line.startswith("core0="))
    surplus = two + ["core2=" + core0.split("=", 1)[1]]
    with pytest.raises(DetectError, match=f"^line {len(surplus)}: unknown field 'core2'$"):
        load_detector("\n".join(surplus) + "\n")


def test_load_rejects_inconsistent_normalization(line_train, line_val):
    text = save_detector(train("ft", line_train, line_val))
    # truncating the mins vector must not load
    broken = "\n".join(
        line if not line.startswith("mins=") else "mins=0.0"
        for line in text.splitlines()) + "\n"
    with pytest.raises(DetectError, match="do not match the column count"):
        load_detector(broken)


@pytest.fixture(scope="module")
def saved_detectors(line_train, line_val):
    return {kind: save_detector(train(kind, line_train, line_val, seed=0))
            for kind in DETECTOR_KINDS}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind,field", [
    ("ft", "threshold"), ("ft", "quantile"), ("ft", "mins"), ("ft", "maxs"),
    ("dbscan", "eps"), ("dbscan", "core0"), ("ae", "w0"), ("ae", "b1")])
def test_load_rejects_non_finite_values(saved_detectors, kind, field, bad):
    lines = saved_detectors[kind].splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{field}="))
    values = lines[i].split("=", 1)[1].split(",")
    lines[i] = f"{field}=" + ",".join([bad] + values[1:])
    with pytest.raises(DetectError, match=f"field '{field}' holds a non-finite value"):
        load_detector("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def fn1_saved(fn1_diagnoses):
    """Saved dbscan and ae detectors of fn1, whose diagnoses have 8 columns."""
    d_train, d_val = fn1_diagnoses
    return {kind: save_detector(train(kind, d_train, d_val, params, seed=0))
            for kind, params in (("dbscan", None), ("ae", {"epochs": 5}))}


def _reshaped(text: str, drop: str, added) -> str:
    """The saved detector text without the lines that match drop, with the
    added lines at its end."""
    lines = [line for line in text.splitlines() if not re.match(drop, line)]
    return "\n".join(lines + list(added)) + "\n"


@pytest.mark.parametrize("kind,drop,added,named", [
    ("dbscan", r"core", ["cores_shape=1x2", "core0=0.5,0.5"],
     "dbscan cores of shape 1x2 do not match 8 feature columns"),
    ("dbscan", r"core", ["cores_shape=0x8"],
     "dbscan cores of shape 0x8 do not match 8 feature columns"),
    ("ae", r"layers|w\d|b\d", ["layers=3,2,3", "w0=" + ",".join(["0.1"] * 6), "b0=0.0,0.0",
                              "w1=" + ",".join(["0.1"] * 6), "b1=0.0,0.0,0.0"],
     re.escape("autoencoder layers (3, 2, 3) do not match 8 feature columns")),
    ("ae", r"layers", ["layers=8,0,8"], "autoencoder layer size must be an integer >= 1"),
    ("ae", r"b0", ["b0=0.5"], "autoencoder bias b0 has 1 values, layer 1 has 4 units"),
], ids=["cores-too-narrow", "no-cores", "layers-too-narrow", "zero-layer", "short-bias"])
def test_load_rejects_shapes_that_disagree_with_the_columns(fn1, fn1_saved, fn1_diagnoses,
                                                             kind, drop, added, named,
                                                             tmp_path, capsys):
    """A detector whose cores, layers or biases do not fit its 8 fn1
    columns is refused on load with a DetectError, so confmon detect ends
    with an error line instead of a numpy traceback or, for a short bias
    that numpy would broadcast, a silently wrong score."""
    text = _reshaped(fn1_saved[kind], drop, added)
    with pytest.raises(DetectError, match=named):
        load_detector(text)
    det = tmp_path / "det.txt"
    det.write_text(text)
    log = tmp_path / "log.txt"
    log.write_text(write_log(playout(fn1, 5, seed=1)))
    capsys.readouterr()
    assert main(["detect", "--detector", str(det), "--model", "fn1", "--log", str(log)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # the unedited detector loads and scores
    assert len(score_matrix(load_detector(fn1_saved[kind]), fn1_diagnoses[1])) > 0


def _one_shot_distances(m):
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.5, 1.5, size=(300, 7))
    b = a if m == 300 else rng.uniform(-0.5, 1.5, size=(m, 7))
    d = a[:, None, :] - b[None, :, :]
    return a, b, np.sqrt((d * d).sum(axis=2))


@pytest.mark.parametrize("m", [300, 45])
def test_blocked_pairwise_equals_one_shot_broadcast(m):
    # the default budget splits 300 x 300 x 7 into blocks of 31 rows
    a, b, one_shot = _one_shot_distances(m)
    blocked = _pairwise(a, b)
    assert blocked.shape == (300, m)
    assert blocked.tobytes() == one_shot.tobytes()
    assert _pairwise(a, b, nearest=True).tobytes() == one_shot.min(axis=1).tobytes()


@pytest.mark.parametrize("budget", [1000, 1])
@pytest.mark.parametrize("m", [300, 45])
def test_small_block_budgets_keep_distances(m, budget, monkeypatch):
    # 1000 elements give one-row blocks when m = 300 and 3-row blocks when
    # m = 45; a budget below m * d still takes one row at a time
    monkeypatch.setattr(confmon.detect, "_BLOCK_ELEMENTS", budget)
    a, b, one_shot = _one_shot_distances(m)
    assert _pairwise(a, b).tobytes() == one_shot.tobytes()
    assert _pairwise(a, b, nearest=True).tobytes() == one_shot.min(axis=1).tobytes()


def assert_fit_matches_oracle(d_train, d_val, params=None):
    """train("dbscan") equals the (n, n) reference fit bit for bit: eps, the
    cores in training-row order, the cluster count and the saved text."""
    det = train("dbscan", d_train, d_val, params)
    params = {"min_pts": 4, **(params or {})}
    x = d_train.to_array()
    eps, cores, n_clusters = oracle_fit_dbscan(x, **params)
    assert det.state["eps"] == eps
    assert det.state["cores"].shape == cores.shape
    assert det.state["cores"].tobytes() == cores.tobytes()
    assert det.state["n_clusters"] == n_clusters
    expected = Detector("dbscan", d_train.columns, x.min(axis=0), x.max(axis=0), 0.0,
                        95.0, 0, d_train.model_id,
                        {"eps": eps, "min_pts": params["min_pts"], "cores": cores,
                         "n_clusters": n_clusters})
    expected.threshold = float(np.percentile(_oracle_scores(expected, d_val), 95.0))
    assert save_detector(det) == save_detector(expected)
    return det


def test_dbscan_fit_matches_oracle_on_noisy_som(som):
    log = playout(som, 500, seed=21, noise=NoiseParams(0.03, 0.03))
    train_log, val_log, _ = split_log(log, seed=21)
    d_train, d_val = build_diagnoses(som, train_log), build_diagnoses(som, val_log)
    assert len(np.unique(d_train.to_array(), axis=0)) < len(d_train) // 2  # rows repeat
    det = assert_fit_matches_oracle(d_train, d_val)
    assert det.state["n_clusters"] > 1


def test_dbscan_fit_matches_oracle_on_small_cases(line_train, line_val):
    assert_fit_matches_oracle(line_train, line_val)
    # every row identical: all distances are 0, and so is eps
    same = toy_matrix([(2, 1, 0.5)] * 8)
    assert assert_fit_matches_oracle(same, line_val).state["eps"] == 0.0
    # one variant repeated more than min_pts times among singletons
    crowd = toy_matrix([(0, 0, 1.0)] * 6 + [(3 * i, i % 2, 1.0) for i in range(1, 7)])
    assert_fit_matches_oracle(crowd, line_val)
    assert_fit_matches_oracle(crowd, line_val, {"min_pts": 2})
    # an explicit epsilon
    assert_fit_matches_oracle(line_train, line_val, {"eps": 0.15, "min_pts": 3})
    assert_fit_matches_oracle(crowd, line_val, {"eps": 0.3, "min_pts": 3})


_repeating_rows = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                     st.sampled_from([1.0, 0.5])),
                           min_size=6, max_size=30)


@settings(max_examples=40, deadline=None)
@given(train_rows=_repeating_rows, val_rows=_repeating_rows,
       min_pts=st.integers(1, 5))
def test_dbscan_fit_matches_oracle_on_repeated_rows(train_rows, val_rows, min_pts):
    assert_fit_matches_oracle(toy_matrix(train_rows), toy_matrix(val_rows),
                              {"min_pts": min_pts})


def test_dbscan_distance_arrays_grow_with_distinct_rows(monkeypatch):
    """20 000 training rows drawn from 40 vectors: training builds only the
    (distinct, distinct) matrix, and scoring only (distinct rows, distinct
    cores) arrays. The (n, n) matrix would take 3.2 GB; the spy refuses any
    call that large before it allocates."""
    vectors = [(a, unk, fit) for a in range(10) for unk in range(2) for fit in (1.0, 0.75)]
    pick = np.random.default_rng(0).integers(0, len(vectors), size=20_000)
    d_train = toy_matrix(vectors[i] for i in pick)
    probe = toy_matrix([vectors[i] for i in pick[:5000]] + [(20, 3, 0.25)] * 100)
    calls = []

    def spy(a, b, nearest=False):
        assert a.shape[0] * b.shape[0] <= 50 * 50
        out = _pairwise(a, b, nearest)
        calls.append((a.shape[0], b.shape[0], out.shape))
        return out

    monkeypatch.setattr(confmon.detect, "_pairwise", spy)
    det = train("dbscan", d_train, d_train)
    score_matrix(det, probe)
    n_cores = len(np.unique(det.state["cores"], axis=0))
    assert calls[0] == (len(vectors), len(vectors), (len(vectors), len(vectors)))
    assert calls[1:] == [(len(vectors), n_cores, (len(vectors),)),
                         (len(vectors) + 1, n_cores, (len(vectors) + 1,))]


@st.composite
def _rows_with_repeats(draw):
    """A float matrix of up to 25 rows and 1 to 4 columns, its rows drawn
    from a few prototypes so that they repeat, with -0.0 and +0.0 mixed."""
    width = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25, 3.0])
    protos = draw(st.lists(st.lists(values, min_size=width, max_size=width),
                           min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(protos) - 1), max_size=25))
    return np.array([protos[i] for i in picks], dtype=float).reshape(len(picks), width)


@settings(max_examples=150, deadline=None)
@given(x=_rows_with_repeats())
@example(x=np.zeros((0, 3)))
@example(x=np.array([[2.0, -1.0, 0.5]]))
@example(x=np.array([[0.0], [-0.0], [2.0], [0.0], [2.0]]))
@example(x=np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1.0, -0.0], [1.0, 0.0]]))
@example(x=np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 5.0]]).T)  # not C-contiguous
def test_distinct_rows_match_np_unique(x):
    distinct, inverse, counts = _distinct_rows(x)
    assert distinct.shape[1] == x.shape[1]
    assert np.array_equal(distinct[inverse], x)  # by value, so -0.0 == 0.0
    assert np.array_equal(counts, np.bincount(inverse))
    # in order of first occurrence
    assert list(dict.fromkeys(inverse.tolist())) == list(range(len(distinct)))
    want, want_counts = np.unique(x, axis=0, return_counts=True)
    assert (sorted(zip(map(tuple, distinct.tolist()), counts.tolist()))
            == list(zip(map(tuple, want.tolist()), want_counts.tolist())))


def test_detectors_find_distinct_rows_without_np_unique(som, som_diagnoses, tmp_path,
                                                        monkeypatch):
    """Training, scoring and `confmon detect` group rows by hashing: none of
    them sorts rows with np.unique(..., axis=...), which this spy refuses."""
    real = np.unique

    def spy(ar, *args, **kwargs):
        if kwargs.get("axis") is not None or (len(args) > 3 and args[3] is not None):
            raise AssertionError("np.unique called with axis=")
        return real(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    with pytest.raises(AssertionError, match="axis="):
        np.unique(np.zeros((2, 2)), axis=0)
    d_train, d_val, d_test = som_diagnoses
    dbscan = train("dbscan", d_train, d_val)
    ae = train("ae", d_train, d_val, {"epochs": 5})
    for det in (dbscan, ae):
        assert len(score_matrix(det, d_test)) == len(d_test)
    det_path, log_path = tmp_path / "dbscan.det", tmp_path / "noisy.log"
    det_path.write_text(save_detector(dbscan), encoding="utf-8")
    log_path.write_text(write_log(playout(som, 60, seed=5, noise=NoiseParams(0.05, 0.05))),
                        encoding="utf-8")
    assert main(["detect", "--detector", str(det_path), "--model", "som",
                 "--log", str(log_path), "-o", str(tmp_path / "pred.csv")]) == 0
    assert len((tmp_path / "pred.csv").read_text(encoding="utf-8").splitlines()) == 61


# Digests of `confmon train --detector dbscan` on a noisy 2000-trace som log
# (default split) and of `confmon detect` on a small injected log. They were
# recorded with the (n, n) fit that oracle_fit_dbscan keeps, so they hold the
# distinct-row fit to the same files.
DBSCAN_DETECTOR_SHA256 = "bee9223250e5aa32d8275d21f770cb7f4d23e683dc2f42441c978bd88ec886ee"
DBSCAN_PREDICTIONS_SHA256 = "b1925f13ab98fdb4fdf2d5b728c5fe6bedf94c70779516b671f483e00c526bdc"


def test_cli_dbscan_outputs_are_pinned(som, tmp_path):
    normal = tmp_path / "normal.log"
    normal.write_text(write_log(playout(som, 2000, seed=0, noise=NoiseParams(0.03, 0.03))),
                      encoding="utf-8")
    probe = tmp_path / "probe.log"
    source = playout(som, 40, seed=1, noise=NoiseParams(0.03, 0.03))
    probe.write_text(write_log(EventLog(list(source) + list(
        build_eval_sets(source, 3.0, seed=1)["all"]))), encoding="utf-8")
    det, preds = tmp_path / "dbscan.det", tmp_path / "pred.csv"
    assert main(["train", "--detector", "dbscan", "--model", "som", "--log", str(normal),
                 "-o", str(det)]) == 0
    assert main(["detect", "--detector", str(det), "--model", "som", "--log", str(probe),
                 "-o", str(preds)]) == 0
    assert hashlib.sha256(det.read_bytes()).hexdigest() == DBSCAN_DETECTOR_SHA256
    assert hashlib.sha256(preds.read_bytes()).hexdigest() == DBSCAN_PREDICTIONS_SHA256
