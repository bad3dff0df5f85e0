"""Diagnoses matrices: per-trace misalignment counters plus fitness.

One row per trace, in log order. Columns are the sorted visible activity
names of the model, then UNKNOWN (log moves on activities the model does not
know), then fitness. With the default cost scheme the counter total of a row
equals the optimal alignment cost of its trace. A matrix holds the case ids,
an int counter array of shape (n, k) and a float fitness vector of length n.
build_diagnoses is the one pass that aligns a log: it hands the distinct
traces to alignment.align_variants in one call, which returns their
counters, fitness and alignment lengths, and gathers the rows of the log
from them by one variant index per trace; log fitness and coverage are
reductions of its arrays.

CSV form:

    # confmon-diagnoses v1 model=<id> costs=<c_log>,<c_model>,<c_silent>,0
    case,<a_1>,...,<a_k>,UNKNOWN,fitness

The fourth cost is the synchronous move's, always 0.

Counters are integers; fitness is written with six decimals, so reading a
file back reproduces the written matrix exactly while an in-memory matrix
with more precision round-trips up to that quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import CostScheme, UNKNOWN, align_variants
from .errors import AlignmentError, LogError, _lines
from .eventlog import EventLog
from .petri import PetriNet

_MAGIC = "confmon-diagnoses v1"


@dataclass(frozen=True, eq=False)
class DiagnosesMatrix:
    """Rows in log order; counts has one column per entry of columns[:-1]."""

    columns: tuple[str, ...]
    case_ids: tuple[str, ...]
    counts: np.ndarray
    fitness: np.ndarray
    model_id: str
    costs: CostScheme
    # Total number of alignment moves over the log. Only build_diagnoses knows
    # it; the CSV does not carry it, so a matrix read back has None.
    moves: int | None = None

    def __post_init__(self):
        n = len(self.case_ids)
        counts = np.asarray(self.counts, dtype=np.int64).reshape(n, len(self.columns) - 1)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "fitness", np.asarray(self.fitness, dtype=float).reshape(n))

    def __len__(self) -> int:
        return len(self.case_ids)

    def log_fitness(self) -> float:
        """Mean trace fitness over the rows."""
        if not len(self):
            raise LogError("log fitness of an empty log is undefined")
        # a left-to-right sum, as a per-trace loop would add them
        return sum(self.fitness.tolist()) / len(self)

    def coverage(self) -> float:
        """Coverage of the aligned log (see the module function coverage)."""
        if not len(self):
            raise LogError("coverage of an empty log is undefined")
        if self.moves is None:
            raise LogError("coverage needs the alignment lengths, which a diagnoses CSV lacks")
        if self.moves == 0:
            return 1.0
        return 1.0 - int(self.counts.sum()) / self.moves

    def to_array(self) -> np.ndarray:
        """Numeric matrix, one row per trace, columns as in self.columns."""
        return np.column_stack((self.counts.astype(float), self.fitness))


def diagnosis_columns(net: PetriNet) -> tuple[str, ...]:
    return tuple(sorted(net.visible_labels)) + (UNKNOWN, "fitness")


def build_diagnoses(net: PetriNet, log: EventLog,
                    costs: CostScheme = CostScheme()) -> DiagnosesMatrix:
    """Align every trace and collect its misalignment counters and fitness.

    Each distinct event sequence is aligned once per call, by one call of
    align_variants: with the net and cost scheme fixed, a trace's alignment
    depends only on its events, so traces of one variant share (counts,
    fitness, alignment length), and moves sums every trace's length. The
    rows of the log are gathered from the variants' rows, by one variant
    index per trace.
    """
    columns = diagnosis_columns(net)
    # the variant index of each trace, the variants numbered in log order
    variant = {}
    index = np.array([variant.setdefault(tr.events, len(variant)) for tr in log], dtype=np.intp)
    counts, fitness, moves = align_variants(net, list(variant), columns[:-1], costs)
    return DiagnosesMatrix(columns, tuple(tr.case_id for tr in log), counts[index],
                           fitness[index], net.name, costs, int(moves[index].sum()))


def log_fitness(net: PetriNet, log: EventLog, costs: CostScheme = CostScheme()) -> float:
    """Mean trace fitness over the log."""
    return build_diagnoses(net, log, costs).log_fitness()


def coverage(net: PetriNet, log: EventLog, costs: CostScheme = CostScheme()) -> float:
    """Share of alignment moves that are not misalignments, over a whole log.

    1 - (total misaligned moves) / (total alignment length); 1.0 on logs that
    replay perfectly.
    """
    return build_diagnoses(net, log, costs).coverage()


def _fmt_cost(value: float) -> str:
    """The short :g form when it reads back as the same float, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def write_diagnoses(diag: DiagnosesMatrix) -> str:
    """Render as CSV with a comment line naming the model and cost scheme."""
    c = diag.costs
    costs = ",".join(_fmt_cost(v) for v in (c.c_log, c.c_model, c.c_silent, 0))
    head = f"# {_MAGIC} model={diag.model_id} costs={costs}"
    lines = [head, "case," + ",".join(diag.columns)]
    for case_id, row, fit in zip(diag.case_ids, diag.counts.tolist(), diag.fitness.tolist()):
        lines.append(",".join([case_id, *map(str, row), f"{fit:.6f}"]))
    return "\n".join(lines) + "\n"


def read_diagnoses(text: str) -> DiagnosesMatrix:
    """Parse a diagnoses CSV produced by write_diagnoses.

    A row with a negative counter, a fitness outside [0, 1] or a case id of
    an earlier row raises a LogError that names its line, as does a costs
    field that is not three valid CostScheme costs followed by 0.
    """
    model_id = "unknown"
    costs = CostScheme()
    header = None
    case_ids, counts, fitness = [], [], []
    seen = set()
    for no, line in _lines(text.splitlines()):
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith(_MAGIC):
                # the model id is everything between model= and costs=, so
                # it may hold spaces
                head, has_costs, cost_text = body[len(_MAGIC):].partition(" costs=")
                head = head.strip()
                if head.startswith("model="):
                    model_id = head[len("model="):]
                if has_costs:
                    try:
                        cl, cm, cs, cy = (float(x) for x in cost_text.split(","))
                        if cy != 0:
                            raise ValueError("the fourth (sync) cost must be 0")
                        costs = CostScheme(cl, cm, cs)
                    except (ValueError, AlignmentError) as exc:
                        raise LogError(
                            f"line {no}: bad costs field {'costs=' + cost_text!r}: {exc}") from exc
            continue
        cells = line.split(",")
        if header is None:
            if cells[0] != "case" or len(cells) < 3 or cells[-2] != UNKNOWN or cells[-1] != "fitness":
                raise LogError(
                    f"line {no}: expected header 'case,<activities>,{UNKNOWN},fitness', got {line!r}")
            header = tuple(cells[1:])
            repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
            if repeated is not None:
                raise LogError(f"line {no}: column {repeated!r} appears more than once")
            continue
        if len(cells) != len(header) + 1:
            raise LogError(f"line {no}: expected {len(header) + 1} cells, got {len(cells)}")
        try:
            row = [int(cell) for cell in cells[1:-1]]
            fit = float(cells[-1])
        except ValueError as exc:
            raise LogError(f"line {no}: non-numeric cell: {line!r}") from exc
        if not math.isfinite(fit):
            raise LogError(f"line {no}: fitness must be finite, got {cells[-1]!r}")
        if not 0.0 <= fit <= 1.0:
            raise LogError(f"line {no}: fitness must lie in [0, 1], got {cells[-1]!r}")
        if min(row, default=0) < 0:
            raise LogError(f"line {no}: counters must be non-negative: {line!r}")
        if cells[0] in seen:
            raise LogError(f"line {no}: repeated case id {cells[0]!r}")
        seen.add(cells[0])
        case_ids.append(cells[0])
        counts.append(row)
        fitness.append(fit)
    if header is None:
        raise LogError("diagnoses CSV has no header row")
    try:
        return DiagnosesMatrix(header, tuple(case_ids), counts, fitness, model_id, costs)
    except OverflowError as exc:
        raise LogError(f"a counter does not fit in 64 bits: {exc}") from exc
