from __future__ import annotations

import numpy as np
import pytest

from confmon.alignment import CostScheme
from confmon.detect import (DETECTOR_KINDS, _pairwise, ae_gradient_check,
                            classify, default_ae_layers, load_detector,
                            save_detector, score, score_matrix, train)
from confmon.diagnoses import DiagnosesMatrix, DiagRow, build_diagnoses
from confmon.errors import DetectError
from confmon.eventlog import split_log
from confmon.petri import NoiseParams, playout

COLS = ("a", "UNKNOWN", "fitness")


def toy_row(cid, a, unk=0, fit=1.0):
    return DiagRow(cid, {"a": a, "UNKNOWN": unk}, fit)


def toy_matrix(rows):
    return DiagnosesMatrix(COLS, tuple(rows), "toy", CostScheme())


@pytest.fixture(scope="module")
def line_train():
    return toy_matrix(toy_row(f"t{i}", i) for i in range(10))


@pytest.fixture(scope="module")
def line_val():
    return toy_matrix(toy_row(f"v{i}", i) for i in range(10))


@pytest.fixture(scope="module")
def fn1_diagnoses(fn1):
    log = playout(fn1, 50, seed=3, noise=NoiseParams(0.05, 0.05))
    train_log, val_log, _ = split_log(log, seed=3)
    return build_diagnoses(fn1, train_log), build_diagnoses(fn1, val_log)


def test_ft_scores_one_minus_fitness(line_train, line_val):
    det = train("ft", line_train, line_val)
    assert score(det, toy_row("x", 0, fit=1.0)) == 0.0
    assert score(det, toy_row("x", 0, fit=0.25)) == 0.75


def test_threshold_is_validation_percentile(line_train):
    val = toy_matrix(toy_row(f"v{i}", 0, fit=1.0 - i / 100.0) for i in range(20))
    det = train("ft", line_train, val, quantile=95.0)
    scores = [i / 100.0 for i in range(20)]
    assert det.threshold == pytest.approx(np.percentile(scores, 95.0))
    det100 = train("ft", line_train, val, quantile=100.0)
    assert det100.threshold == pytest.approx(0.19)


def test_classification_is_strictly_above_threshold(line_train, line_val):
    det = train("ft", line_train, line_val, quantile=100.0)
    # every validation trace fits perfectly, so the threshold is exactly zero
    assert det.threshold == 0.0
    assert classify(det, toy_row("x", 3, fit=1.0)) == "normal"
    assert classify(det, toy_row("x", 3, fit=0.999)) == "anomalous"


def test_dbscan_eps_heuristic_frozen(line_train, line_val):
    """Ten training rows on a line normalize to 0, 1/9, ..., 1; the distance
    to the fourth-nearest other row is 2/9 inside, 3/9 and 4/9 at the rim, and
    its 90th percentile lands on 4/9."""
    det = train("dbscan", line_train, line_val)
    assert det.state["eps"] == pytest.approx(4.0 / 9.0)
    assert det.state["cores"].shape[0] == 10
    assert det.state["n_clusters"] == 1
    assert det.threshold == 0.0
    assert score(det, toy_row("x", 4.5)) == pytest.approx(1.0 / 18.0)
    assert classify(det, toy_row("x", 5)) == "normal"
    assert classify(det, toy_row("x", 20)) == "anomalous"


def test_normalization_clamps_outliers(line_train, line_val):
    # 20 and 100 both clip to 1.5 after min-max scaling, pinning the score
    det = train("dbscan", line_train, line_val)
    assert score(det, toy_row("x", 20)) == score(det, toy_row("x", 100)) == pytest.approx(0.5)


def test_constant_column_normalization(line_train, line_val):
    """UNKNOWN and fitness are constant in training; their range falls back to
    one, so a deviation passes through as a raw (clamped) offset."""
    det = train("dbscan", line_train, line_val)
    assert score(det, toy_row("x", 0, unk=1)) == pytest.approx(1.0)
    assert score(det, toy_row("x", 0, unk=50)) == pytest.approx(1.5)


def test_dbscan_explicit_eps_and_no_core_error(line_train, line_val):
    det = train("dbscan", line_train, line_val, {"eps": 10.0})
    assert det.state["eps"] == 10.0
    with pytest.raises(DetectError, match="no core points"):
        train("dbscan", line_train, line_val, {"eps": 1e-6})


def test_dbscan_needs_rows_to_estimate_eps(line_val):
    tiny = toy_matrix(toy_row(f"t{i}", i) for i in range(5))
    with pytest.raises(DetectError, match="estimate epsilon"):
        train("dbscan", tiny, line_val, {"min_pts": 5})
    # an explicit epsilon sidesteps the estimate
    det = train("dbscan", tiny, line_val, {"min_pts": 5, "eps": 5.0})
    assert det.state["cores"].shape[0] == 5


def test_default_ae_layers():
    assert default_ae_layers(4) == (4, 2, 2, 2, 4)
    assert default_ae_layers(5) == (5, 3, 2, 3, 5)
    assert default_ae_layers(8) == (8, 4, 2, 4, 8)
    assert default_ae_layers(16) == (16, 8, 4, 8, 16)


def test_ae_gradient_check_small():
    assert ae_gradient_check([4, 2, 4], seed=0) < 1e-4
    with pytest.raises(DetectError, match="at least"):
        ae_gradient_check([4])


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
    probe = d_val.rows[0]
    assert score(a, probe) == score(b, probe)
    assert score(a, probe) != score(c, probe)


def test_ae_layer_mismatch_rejected(line_train, line_val):
    with pytest.raises(DetectError, match="feature columns"):
        train("ae", line_train, line_val, {"layers": (4, 2, 4)})


def test_unknown_params_rejected(line_train, line_val):
    with pytest.raises(DetectError, match="unknown ft parameters"):
        train("ft", line_train, line_val, {"bogus": 1})


def test_train_input_validation(line_train, line_val):
    with pytest.raises(DetectError, match="unknown detector kind"):
        train("svm", line_train, line_val)
    with pytest.raises(DetectError, match="at least 5 training rows"):
        train("ft", toy_matrix([toy_row("t1", 1)]), line_val)
    with pytest.raises(DetectError, match="validation diagnoses are empty"):
        train("ft", line_train, toy_matrix([]))
    with pytest.raises(DetectError, match="quantile"):
        train("ft", line_train, line_val, quantile=101.0)
    other = DiagnosesMatrix(("b", "UNKNOWN", "fitness"),
                            (DiagRow("v1", {"b": 0, "UNKNOWN": 0}, 1.0),),
                            "toy", CostScheme())
    with pytest.raises(DetectError, match="different columns"):
        train("ft", line_train, other)


def test_score_rejects_mismatched_rows(line_train, line_val):
    det = train("ft", line_train, line_val)
    bad = DiagRow("x", {"b": 0, "UNKNOWN": 0}, 1.0)
    with pytest.raises(DetectError, match="do not match"):
        score(det, bad)
    other = DiagnosesMatrix(("b", "UNKNOWN", "fitness"),
                            (DiagRow("v1", {"b": 0, "UNKNOWN": 0}, 1.0),),
                            "toy", CostScheme())
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
    for row in d_val.rows:
        assert score(back, row) == score(det, row)


def test_score_matrix_matches_row_scores(fn1_diagnoses):
    d_train, d_val = fn1_diagnoses
    det = train("dbscan", d_train, d_val)
    got = score_matrix(det, d_val)
    assert got.tolist() == [score(det, row) for row in d_val.rows]


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


@pytest.mark.parametrize("m", [300, 45])
def test_blocked_pairwise_equals_one_shot_broadcast(m):
    # 300 rows is not a multiple of the 128-row block
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.5, 1.5, size=(300, 7))
    b = a if m == 300 else rng.uniform(-0.5, 1.5, size=(m, 7))
    d = a[:, None, :] - b[None, :, :]
    one_shot = np.sqrt((d * d).sum(axis=2))
    blocked = _pairwise(a, b)
    assert blocked.shape == (300, m)
    assert blocked.tobytes() == one_shot.tobytes()
