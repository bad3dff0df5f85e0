from __future__ import annotations

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmon.detect
from confmon.alignment import CostScheme
from confmon.cli import main
from confmon.detect import (DETECTOR_KINDS, Detector, _pairwise, ae_gradient_check,
                            classify, default_ae_layers, load_detector,
                            save_detector, score_matrix, train)
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
    with pytest.raises(DetectError, match="min_pts must be >= 1"):
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
    with pytest.raises(DetectError, match="malformed detector line"):
        load_detector("confmon-detector v1\nnonsense\n")
    with pytest.raises(DetectError, match="missing field"):
        load_detector("confmon-detector v1\nkind=ft\n")
    with pytest.raises(DetectError, match="unknown detector kind"):
        load_detector("confmon-detector v1\nkind=svm\nmodel=m\n")


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
