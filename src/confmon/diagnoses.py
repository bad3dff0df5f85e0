"""Diagnoses matrices: per-trace misalignment counters plus fitness.

One row per trace, in log order. Columns are the sorted visible activity
names of the model, then UNKNOWN (log moves on activities the model does not
know), then fitness. With the default cost scheme the counter total of a row
equals the optimal alignment cost of its trace. build_diagnoses is the one
pass that aligns a log, once per distinct trace; log fitness and coverage are
reductions of its matrix.

CSV form:

    # confmon-diagnoses v1 model=<id> costs=<c_log>,<c_model>,<c_silent>,<c_sync>
    case,<a_1>,...,<a_k>,UNKNOWN,fitness

Counters are integers; fitness is written with six decimals, so reading a
file back reproduces the written matrix exactly while an in-memory matrix
with more precision round-trips up to that quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import (CostScheme, UNKNOWN, fitness_from_cost, misalignments,
                        optimal_alignment)
from .errors import LogError
from .eventlog import EventLog
from .petri import PetriNet

_MAGIC = "confmon-diagnoses v1"


@dataclass(frozen=True)
class DiagRow:
    """Misalignment counters and fitness for one trace."""

    case_id: str
    counts: dict
    fitness: float

    def vector(self, columns) -> list[float]:
        """Row as floats in the given column order (labels..., UNKNOWN, fitness)."""
        out = []
        for col in columns:
            if col == "fitness":
                out.append(float(self.fitness))
            else:
                out.append(float(self.counts[col]))
        return out


@dataclass(frozen=True)
class DiagnosesMatrix:
    columns: tuple[str, ...]
    rows: tuple[DiagRow, ...]
    model_id: str
    costs: CostScheme
    # Total number of alignment moves over the log. Only build_diagnoses knows
    # it; the CSV does not carry it, so a matrix read back has None.
    moves: int | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def log_fitness(self) -> float:
        """Mean trace fitness over the rows."""
        if not self.rows:
            raise LogError("log fitness of an empty log is undefined")
        return sum(row.fitness for row in self.rows) / len(self.rows)

    def coverage(self) -> float:
        """Coverage of the aligned log (see the module function coverage)."""
        if not self.rows:
            raise LogError("coverage of an empty log is undefined")
        if self.moves is None:
            raise LogError("coverage needs the alignment lengths, which a diagnoses CSV lacks")
        if self.moves == 0:
            return 1.0
        misaligned = sum(sum(row.counts.values()) for row in self.rows)
        return 1.0 - misaligned / self.moves

    def to_array(self) -> np.ndarray:
        """Numeric matrix, one row per trace, columns as in self.columns."""
        if not self.rows:
            return np.zeros((0, len(self.columns)))
        return np.array([row.vector(self.columns) for row in self.rows], dtype=float)


def diagnosis_columns(net: PetriNet) -> tuple[str, ...]:
    return tuple(sorted(net.visible_labels)) + (UNKNOWN, "fitness")


def build_diagnoses(net: PetriNet, log: EventLog,
                    costs: CostScheme = CostScheme()) -> DiagnosesMatrix:
    """Align every trace and collect its misalignment counters and fitness.

    Each distinct event sequence is aligned once per call: with the net and
    cost scheme fixed, a trace's alignment depends only on its events, so
    traces of one variant share (counts, fitness, alignment length). Every
    row still gets its own counts dict, and moves sums every trace's length.
    """
    rows = []
    moves = 0
    variants: dict[tuple[str, ...], tuple[dict, float, int]] = {}
    for tr in log:
        aligned = variants.get(tr.events)
        if aligned is None:
            alignment = optimal_alignment(net, tr, costs)
            aligned = (misalignments(alignment, net.visible_labels),
                       fitness_from_cost(net, tr, alignment.cost, costs),
                       len(alignment))
            variants[tr.events] = aligned
        counts, fit, length = aligned
        rows.append(DiagRow(tr.case_id, dict(counts), fit))
        moves += length
    return DiagnosesMatrix(diagnosis_columns(net), tuple(rows), net.name, costs, moves)


def log_fitness(net: PetriNet, log: EventLog, costs: CostScheme = CostScheme()) -> float:
    """Mean trace fitness over the log."""
    return build_diagnoses(net, log, costs).log_fitness()


def coverage(net: PetriNet, log: EventLog, costs: CostScheme = CostScheme()) -> float:
    """Share of alignment moves that are not misalignments, over a whole log.

    1 - (total misaligned moves) / (total alignment length); 1.0 on logs that
    replay perfectly.
    """
    return build_diagnoses(net, log, costs).coverage()


def write_diagnoses(diag: DiagnosesMatrix) -> str:
    """Render as CSV with a comment line naming the model and cost scheme."""
    c = diag.costs
    head = (f"# {_MAGIC} model={diag.model_id} "
            f"costs={c.c_log:g},{c.c_model:g},{c.c_silent:g},{c.c_sync:g}")
    lines = [head, "case," + ",".join(diag.columns)]
    for row in diag.rows:
        cells = [row.case_id]
        for col in diag.columns[:-1]:
            cells.append(str(row.counts[col]))
        cells.append(f"{row.fitness:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_diagnoses(text: str) -> DiagnosesMatrix:
    """Parse a diagnoses CSV produced by write_diagnoses."""
    model_id = "unknown"
    costs = CostScheme()
    header = None
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith(_MAGIC):
                for part in body[len(_MAGIC):].split():
                    if part.startswith("model="):
                        model_id = part[len("model="):]
                    elif part.startswith("costs="):
                        try:
                            cl, cm, cs, cy = (float(x) for x in part[len("costs="):].split(","))
                        except ValueError as exc:
                            raise LogError(f"line {no}: bad costs field: {part!r}") from exc
                        costs = CostScheme(cl, cm, cs, cy)
            continue
        cells = line.split(",")
        if header is None:
            if cells[0] != "case" or len(cells) < 3 or cells[-2] != UNKNOWN or cells[-1] != "fitness":
                raise LogError(
                    f"line {no}: expected header 'case,<activities>,{UNKNOWN},fitness', got {line!r}")
            header = tuple(cells[1:])
            continue
        if len(cells) != len(header) + 1:
            raise LogError(f"line {no}: expected {len(header) + 1} cells, got {len(cells)}")
        try:
            counts = {col: int(cell) for col, cell in zip(header[:-1], cells[1:-1])}
            fitness = float(cells[-1])
        except ValueError as exc:
            raise LogError(f"line {no}: non-numeric cell: {line!r}") from exc
        if not math.isfinite(fitness):
            raise LogError(f"line {no}: fitness must be finite, got {cells[-1]!r}")
        rows.append(DiagRow(cells[0], counts, fitness))
    if header is None:
        raise LogError("diagnoses CSV has no header row")
    return DiagnosesMatrix(header, tuple(rows), model_id, costs)
