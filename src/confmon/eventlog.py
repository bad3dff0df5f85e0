"""Event logs: traces of activity names with optional ground-truth labels.

Two text formats are supported. The trace-per-line format is canonical:

    <case_id>: <activity> <activity> ... [| normal]

and a long CSV format with header ``case,activity[,label]`` and one event per
row, grouped by case. Activity names and case ids are whitespace-free tokens;
``|`` is reserved as the label separator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import LogError

LABELS = ("normal", "anomalous")


def _check_token(value: str, what: str) -> None:
    if not isinstance(value, str):
        raise LogError(f"{what} must be a str: {value!r}")
    if value.split() != [value]:  # empty, or holds whitespace anywhere
        raise LogError(f"{what} must be a non-empty token without whitespace: {value!r}")
    if "|" in value:
        raise LogError(f"{what} may not contain '|': {value!r}")


@dataclass(frozen=True)
class Trace:
    """One case: an ordered sequence of activity names.

    label is "normal", "anomalous", or None when no ground truth is attached.
    """

    case_id: str
    events: tuple[str, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        _check_token(self.case_id, "case id")
        if ":" in self.case_id:
            raise LogError(f"case id may not contain ':': {self.case_id!r}")
        if isinstance(self.events, str):
            raise LogError(f"trace events must be a sequence of activities, "
                           f"not the str {self.events!r}")
        try:
            events = tuple(self.events)
        except TypeError:
            raise LogError(f"trace events must be a sequence of activities: "
                           f"{self.events!r}") from None
        object.__setattr__(self, "events", events)
        # The events are all tokens exactly when joining them with spaces
        # and splitting again gives them back: str.split drops an empty event
        # and breaks one that holds whitespace. Only a failed check walks the
        # events one by one, to name the first bad one.
        try:
            joined = " ".join(events)
            valid = "|" not in joined and joined.split() == list(events)
        except TypeError:  # an event is not a str
            valid = False
        if not valid:
            for ev in events:
                _check_token(ev, "activity")
        if self.label is not None and self.label not in LABELS:
            raise LogError(f"trace label must be one of {LABELS}: {self.label!r}")

    def __len__(self) -> int:
        return len(self.events)


class EventLog:
    """An ordered collection of traces with unique case ids."""

    def __init__(self, traces):
        self.traces = tuple(traces)
        seen = set()
        for tr in self.traces:
            if not isinstance(tr, Trace):
                raise LogError(f"event log entries must be Trace objects, got {type(tr).__name__}")
            if tr.case_id in seen:
                raise LogError(f"duplicate case id: {tr.case_id!r}")
            seen.add(tr.case_id)

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __getitem__(self, idx):
        return self.traces[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, EventLog) and self.traces == other.traces

    def activities(self) -> set[str]:
        """Set of all activity names occurring in the log."""
        acts: set[str] = set()
        for tr in self.traces:
            acts.update(tr.events)
        return acts


def parse_log(text: str) -> EventLog:
    """Parse event log text, auto-detecting the CSV and trace-per-line formats."""
    lines = text.splitlines()
    for line in lines:
        if line.strip():
            if line.strip().split(",")[0] == "case":
                return _parse_csv(lines)
            break
    return _parse_lines(lines)


def _parse_lines(lines) -> EventLog:
    traces = []
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise LogError(f"line {no}: expected '<case_id>: <activities>', got {line!r}")
        case_id, rest = line.split(":", 1)
        label = None
        if "|" in rest:
            rest, label_part = rest.split("|", 1)
            label = label_part.strip()
            if label not in LABELS:
                raise LogError(f"line {no}: unknown label {label!r}")
        try:
            traces.append(Trace(case_id.strip(), tuple(rest.split()), label))
        except LogError as exc:
            raise LogError(f"line {no}: {exc}") from exc
    return EventLog(traces)


def _parse_csv(lines) -> EventLog:
    header_seen = False
    with_label = False
    order: list[str] = []
    events: dict[str, list[str]] = {}
    labels: dict[str, str | None] = {}
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if not header_seen:
            if cells == ["case", "activity"]:
                with_label = False
            elif cells == ["case", "activity", "label"]:
                with_label = True
            else:
                raise LogError(f"line {no}: expected header 'case,activity[,label]', got {line!r}")
            header_seen = True
            continue
        if len(cells) != (3 if with_label else 2):
            raise LogError(f"line {no}: wrong number of columns: {line!r}")
        case_id, activity = cells[0], cells[1]
        label = cells[2] if with_label else ""
        if case_id not in events:
            order.append(case_id)
            events[case_id] = []
            labels[case_id] = None
        events[case_id].append(activity)
        if label:
            if label not in LABELS:
                raise LogError(f"line {no}: unknown label {label!r}")
            prev = labels[case_id]
            if prev is not None and prev != label:
                raise LogError(f"line {no}: conflicting labels for case {case_id!r}")
            labels[case_id] = label
    traces = [Trace(cid, tuple(events[cid]), labels[cid]) for cid in order]
    return EventLog(traces)


def write_log(log: EventLog) -> str:
    """Render a log in the canonical trace-per-line format. Round-trips via parse_log."""
    lines = []
    for tr in log:
        line = f"{tr.case_id}: {' '.join(tr.events)}".rstrip()
        if tr.label is not None:
            line += f" | {tr.label}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def write_log_csv(log: EventLog) -> str:
    """Render a log in the long CSV format.

    Empty traces have no row representation in this format and are rejected.
    """
    with_label = any(tr.label is not None for tr in log)
    header = "case,activity,label" if with_label else "case,activity"
    rows = [header]
    for tr in log:
        if not tr.events:
            raise LogError(f"case {tr.case_id!r} has no events and cannot be written as CSV")
        for ev in tr.events:
            if with_label:
                rows.append(f"{tr.case_id},{ev},{tr.label or ''}")
            else:
                rows.append(f"{tr.case_id},{ev}")
    return "\n".join(rows) + "\n"


def ingest_raw(lines, vocabulary, case_id: str = "raw") -> Trace:
    """Distill one trace from raw text lines.

    Scans each line left to right and emits the first whitespace-delimited
    token that is a member of vocabulary; lines without a vocabulary token
    contribute nothing. This drops interleaved non-process output (log levels,
    addresses, unrelated prints) while keeping the activity order.
    """
    vocab = set(vocabulary)
    events = []
    for line in lines:
        for token in line.split():
            if token in vocab:
                events.append(token)
                break
    return Trace(case_id, tuple(events))


@dataclass(frozen=True)
class LogStats:
    n_traces: int
    n_variants: int
    mean_len: float
    std_len: float


def stats(log: EventLog) -> LogStats:
    """Trace count, distinct-variant count, and population mean/std of trace length."""
    n = len(log)
    if n == 0:
        return LogStats(0, 0, 0.0, 0.0)
    lengths = [len(tr) for tr in log]
    variants = {tr.events for tr in log}
    mean = sum(lengths) / n
    var = sum((x - mean) ** 2 for x in lengths) / n
    return LogStats(n, len(variants), mean, math.sqrt(var))


def split_log(log: EventLog, ratios=(0.6, 0.2, 0.2), seed: int = 0):
    """Random train/validation/test partition by trace.

    Split sizes are floor(ratio * n) with the remainder assigned to training.
    Each split keeps the original log order. A split that would receive zero
    traces is an error.
    """
    if len(ratios) != 3:
        raise LogError("split ratios must be a triple (train, val, test)")
    # every comparison with nan is false, so a nan ratio fails 0 < r <= 1
    if not all(0 < r <= 1 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise LogError(f"split ratios must be positive, finite and sum to 1: {ratios}")
    n = len(log)
    # floor(r * n), with a nudge so 0.2 * 45 style float dust cannot round down
    n_val = int(ratios[1] * n + 1e-9)
    n_test = int(ratios[2] * n + 1e-9)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise LogError(f"split of {n} traces with ratios {ratios} leaves an empty part")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    parts = (sorted(indices[:n_train]),
             sorted(indices[n_train:n_train + n_val]),
             sorted(indices[n_train + n_val:]))
    return tuple(EventLog([log[i] for i in part]) for part in parts)
