"""Binary detection metrics: confusion counts, accuracy/precision/recall/F1,
and ROC curves with trapezoidal AUC. "anomalous" is the positive class."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import MetricsError
from .eventlog import LABELS


@dataclass(frozen=True)
class Confusion:
    tp: int
    tn: int
    fp: int
    fn: int


def confusion(labels, predictions) -> Confusion:
    """Confusion counts from ground-truth labels and predicted labels."""
    labels = list(labels)
    predictions = list(predictions)
    if len(labels) != len(predictions):
        raise MetricsError(f"{len(labels)} labels but {len(predictions)} predictions")
    if not labels:
        raise MetricsError("no observations")
    pairs = Counter(zip(labels, predictions))  # in order of first occurrence
    for truth, pred in pairs:
        if truth not in LABELS or pred not in LABELS:
            raise MetricsError(f"labels must be in {LABELS}: got ({truth!r}, {pred!r})")
    return Confusion(pairs["anomalous", "anomalous"], pairs["normal", "normal"],
                     pairs["normal", "anomalous"], pairs["anomalous", "normal"])


@dataclass(frozen=True)
class PrfResult:
    """Accuracy, precision, recall, F1. Metrics whose denominator was zero are
    reported as 0.0 and named in flags."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


def prf(c: Confusion) -> PrfResult:
    total = c.tp + c.tn + c.fp + c.fn
    if total == 0:
        raise MetricsError("empty confusion matrix")
    flags = []

    def safe(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    accuracy = (c.tp + c.tn) / total
    precision = safe(c.tp, c.tp + c.fp, "precision")
    recall = safe(c.tp, c.tp + c.fn, "recall")
    f1 = safe(2 * precision * recall, precision + recall, "f1")
    return PrfResult(accuracy, precision, recall, f1, tuple(flags))


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr) points from (0,0) to (1,1) and the trapezoidal area."""

    points: tuple
    auc: float


def roc_auc(labels, scores) -> RocCurve:
    """ROC by descending score threshold sweep; ties move as one group, so the
    area equals the probability that a random anomalous observation outscores
    a random normal one (ties counting half)."""
    labels = list(labels)
    scores = [float(s) for s in scores]
    if len(labels) != len(scores):
        raise MetricsError(f"{len(labels)} labels but {len(scores)} scores")
    pos = sum(1 for l in labels if l == "anomalous")
    neg = sum(1 for l in labels if l == "normal")
    if pos + neg != len(labels):
        raise MetricsError(f"labels must be in {LABELS}")
    if pos == 0 or neg == 0:
        raise MetricsError("ROC needs both classes present")
    by_score: dict[float, list[int]] = {}
    for lab, sc in zip(labels, scores):
        bucket = by_score.setdefault(sc, [0, 0])
        bucket[0 if lab == "anomalous" else 1] += 1
    points = [(0.0, 0.0)]
    tp = fp = 0
    auc = 0.0
    for sc in sorted(by_score, reverse=True):
        dp, dn = by_score[sc]
        prev_fpr, prev_tpr = points[-1]
        tp += dp
        fp += dn
        fpr, tpr = fp / neg, tp / pos
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        points.append((fpr, tpr))
    return RocCurve(tuple(points), auc)
