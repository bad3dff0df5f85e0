"""Event logs: traces of activity names with optional ground-truth labels.

Two text formats are supported. The trace-per-line format is canonical:

    <case_id>: <activity> <activity> ... [| normal]

and a long CSV format with header ``case,activity[,label]`` and one event per
row, grouped by case. Activity names and case ids are whitespace-free tokens
that hold no NUL and no U+FEFF; ``|`` is reserved as the label separator. A
case id holds no ``:`` and no ``,``, the field separator of the CSVs the
package writes.

``Trace(...)`` is the one validating constructor. The trace-per-line parser
builds its traces without it: an activity is a token of ``str.split`` on the
text between ``:`` and ``|``, so it is non-empty, holds no whitespace and no
``|`` by construction. The parser checks that the text holds no NUL and no
U+FEFF, which no token may hold either, once per distinct text, and checks
the label and the case id itself with the same rules. A parsed log stores
each distinct activity name once and shares one events tuple between lines
with the same body.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

from .errors import LogError, _lines

LABELS = ("normal", "anomalous")
_LABEL_OF = {label: label for label in LABELS}  # a parsed label is one of these strs
# (train, validation, test) ratios of a split
DEFAULT_SPLIT = (0.6, 0.2, 0.2)


def _not_text(value: str) -> bool:
    """Whether value holds a NUL or a U+FEFF, which str.split does not split
    on but no token may hold: neither is text, and a U+FEFF past the start
    of a file is a stray byte-order mark."""
    return "\x00" in value or "\ufeff" in value


def _check_token(value: str, what: str) -> None:
    if not isinstance(value, str):
        raise LogError(f"{what} must be a str: {value!r}")
    if value.split() != [value]:  # empty, or holds whitespace anywhere
        raise LogError(f"{what} must be a non-empty token without whitespace: {value!r}")
    if "|" in value:
        raise LogError(f"{what} may not contain '|': {value!r}")
    if _not_text(value):
        raise LogError(f"{what} may not contain NUL or U+FEFF: {value!r}")


def _check_case_id(value: str) -> None:
    """A case id is a token without ':', which ends it in a trace-per-line
    log, or ',', which separates the fields of every CSV the package
    writes."""
    _check_token(value, "case id")
    for sep in ":,":
        if sep in value:
            raise LogError(f"case id may not contain {sep!r}: {value!r}")


@dataclass(frozen=True)
class Trace:
    """One case: an ordered sequence of activity names.

    label is "normal", "anomalous", or None when no ground truth is attached.
    """

    case_id: str
    events: tuple[str, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        _check_case_id(self.case_id)
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
            valid = ("|" not in joined and not _not_text(joined)
                     and joined.split() == list(events))
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


def parse_log(text) -> EventLog:
    """Parse event log text, auto-detecting the CSV and trace-per-line formats.

    text is a str, or its lines without their line breaks from any iterable,
    read once and in order: parse_log(text.splitlines()) is parse_log(text).
    """
    lines = iter(text.splitlines() if isinstance(text, str) else text)
    head = []
    for line in lines:
        head.append(line)
        if line.strip():
            break
    lines = chain(head, lines)
    if head and head[-1].strip().split(",")[0] == "case":
        return _parse_csv(lines)
    return _parse_lines(lines)


def _parse_lines(lines) -> EventLog:
    # Each Trace is built by hand, without __post_init__: the events are the
    # str.split tokens of a body free of '|', checked for NUL and U+FEFF when
    # the body is first met, so they are valid tokens, and the label is one
    # of the LABELS constants. The case id gets Trace's own
    # checks; it holds no ':' after the split on the first one, so only a ','
    # calls _check_case_id, to raise its error. Fields
    # are set one by one, as __init__ does, so the instances keep CPython's
    # key-sharing dict.
    bodies: dict[str, tuple[str, ...]] = {}  # line body -> its events
    tokens: dict[str, str] = {}  # one str object per activity name
    new, set_field = object.__new__, object.__setattr__
    traces = []
    for no, line in _lines(lines):
        if ":" not in line:
            raise LogError(f"line {no}: expected '<case_id>: <activities>', got {line!r}")
        case_id, rest = line.split(":", 1)
        label = None
        if "|" in rest:
            rest, label_part = rest.split("|", 1)
            name = label_part.strip()
            label = _LABEL_OF.get(name)
            if label is None:
                raise LogError(f"line {no}: unknown label {name!r}")
        events = bodies.get(rest)
        if events is None:
            parts = rest.split()
            if _not_text(rest):
                bad = next(part for part in parts if _not_text(part))
                raise LogError(f"line {no}: activity may not contain NUL or U+FEFF: {bad!r}")
            events = bodies[rest] = tuple(map(tokens.setdefault, parts, parts))
        case_id = case_id.strip()
        try:
            _check_token(case_id, "case id")
            if "," in case_id:
                _check_case_id(case_id)
        except LogError as exc:
            raise LogError(f"line {no}: {exc}") from exc
        trace = new(Trace)
        set_field(trace, "case_id", case_id)
        set_field(trace, "events", events)
        set_field(trace, "label", label)
        traces.append(trace)
    return EventLog(traces)


def _parse_csv(lines) -> EventLog:
    # parse_log calls this only when the first non-blank line's first cell is "case"
    lines = _lines(lines)
    no, header = next(lines)
    if header not in ("case,activity", "case,activity,label"):
        raise LogError(f"line {no}: expected header 'case,activity[,label]', got {header!r}")
    with_label = header == "case,activity,label"
    order: list[str] = []
    events: dict[str, list[str]] = {}
    labels: dict[str, str | None] = {}
    tokens: dict[str, str] = {}  # one str object per activity name
    for no, line in lines:
        cells = line.split(",")
        if len(cells) != (3 if with_label else 2):
            raise LogError(f"line {no}: wrong number of columns: {line!r}")
        case_id, activity = cells[0], cells[1]
        cell = cells[2] if with_label else ""
        if case_id not in events:
            order.append(case_id)
            events[case_id] = []
            labels[case_id] = None
        events[case_id].append(tokens.setdefault(activity, activity))
        if cell:
            label = _LABEL_OF.get(cell)
            if label is None:
                raise LogError(f"line {no}: unknown label {cell!r}")
            prev = labels[case_id]
            if prev is not None and prev != label:
                raise LogError(f"line {no}: conflicting labels for case {case_id!r}")
            labels[case_id] = label
    # a cell is not a split token, so each trace goes through Trace's checks
    traces = []
    for cid in order:
        try:
            traces.append(Trace(cid, tuple(events[cid]), labels[cid]))
        except LogError as exc:
            raise LogError(f"case {cid!r}: {exc}") from exc
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

    Empty traces have no row representation in this format, and an activity
    that holds ',' would split its row; both are rejected.
    """
    with_label = any(tr.label is not None for tr in log)
    header = "case,activity,label" if with_label else "case,activity"
    rows = [header]
    for tr in log:
        if not tr.events:
            raise LogError(f"case {tr.case_id!r} has no events and cannot be written as CSV")
        for ev in tr.events:
            if "," in ev:
                raise LogError(f"case {tr.case_id!r}: activity {ev!r} holds ',' and cannot "
                               f"be written as CSV")
            if with_label:
                rows.append(f"{tr.case_id},{ev},{tr.label or ''}")
            else:
                rows.append(f"{tr.case_id},{ev}")
    return "\n".join(rows) + "\n"


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


def split_sizes(n: int, ratios=DEFAULT_SPLIT) -> tuple[int, int, int]:
    """(train, validation, test) sizes of a split of n traces: floor(ratio *
    n) for validation and test, the remainder for training. LogError unless
    the ratios are a triple of positive numbers summing to 1 and every part
    gets at least one trace."""
    if len(ratios) != 3:
        raise LogError("split ratios must be a triple (train, val, test)")
    # every comparison with nan is false, so a nan ratio fails 0 < r <= 1
    if not all(0 < r <= 1 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise LogError(f"split ratios must be positive, finite and sum to 1: {ratios}")
    # floor(r * n), with a nudge so 0.2 * 45 style float dust cannot round down
    n_val = int(ratios[1] * n + 1e-9)
    n_test = int(ratios[2] * n + 1e-9)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise LogError(f"split of {n} traces with ratios {ratios} leaves an empty part")
    return n_train, n_val, n_test


def split_log(log: EventLog, ratios=DEFAULT_SPLIT, seed: int = 0):
    """Random train/validation/test partition by trace.

    Split sizes are floor(ratio * n) with the remainder assigned to training.
    Each split keeps the original log order. A split that would receive zero
    traces is an error.
    """
    n = len(log)
    n_train, n_val, _ = split_sizes(n, ratios)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    parts = (sorted(indices[:n_train]),
             sorted(indices[n_train:n_train + n_val]),
             sorted(indices[n_train + n_val:]))
    return tuple(EventLog([log[i] for i in part]) for part in parts)
