"""Output checks, run by the parent harness on the files a rep wrote.

For the default seed every output file is compared against a pinned SHA-256
digest (``pins.json``). Digests are bit-exact, so they are pinned together
with the numeric platform they were taken on (numpy version, BLAS kernel,
CPU dispatch features); on another platform only the invariants run, and
the report says so. The invariants run for every seed: row counts match
the input trace counts, fitness and AUC lie in [0, 1], predictions and
confusion counts cover the evaluation log. Parsing is plain stdlib, so the
checks do not depend on the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

EVAL_SETS = ("MA", "WOA", "UA", "ALL")
METRICS = ("accuracy", "recall", "precision", "f1", "auc")


class Checks:
    """Collects (name, ok, detail) results."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


def digests(outdir: Path) -> dict:
    return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def load_pins() -> dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check_outputs(workload: str, size: str, seed: int, outdir: Path, expect: dict,
                  platform: dict, pins: dict) -> tuple[Checks, str]:
    """Run the invariants, plus the digest pins for the default seed.

    Returns the checks and a one-line note on whether digests were compared.
    """
    checks = Checks()
    _INVARIANTS[workload](checks, outdir, expect)
    note = "digests: not pinned for this seed (invariants only)"
    if seed == DEFAULT_SEED:
        pinned = pins.get("digests", {}).get(f"{workload}/{size}")
        if pinned is None:
            note = "digests: none pinned for this workload and size (invariants only)"
        elif pins.get("platform") != numeric_platform(platform):
            note = ("digests: pinned on another numeric platform, not compared "
                    f"(pinned {pins.get('platform')}, here {numeric_platform(platform)})")
        else:
            got = digests(outdir)
            for name in sorted(set(pinned) | set(got)):
                checks.add(f"digest {name}", pinned.get(name) == got.get(name),
                           f"expected {pinned.get(name)}, got {got.get(name)}")
            note = f"digests: {len(pinned)} files compared against pins"
    return checks, note


def numeric_platform(platform: dict) -> dict:
    """The parts of the platform that decide the float bits of the outputs."""
    return {k: platform.get(k) for k in ("python", "numpy", "blas_core", "cpu_features")}


# -- invariants ----------------------------------------------------------------


def _rows(path: Path) -> tuple[list, list]:
    """Header cells and data rows of a CSV, skipping '#' comment lines."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _check_diagnoses(checks: Checks, path: Path, n_traces: int) -> None:
    if not path.is_file():
        checks.add(f"{path.name} exists", False, "missing")
        return
    header, rows = _rows(path)
    checks.add(f"{path.name} rows == input traces", len(rows) == n_traces,
               f"{len(rows)} rows for {n_traces} traces")
    fitness = [float(r[-1]) for r in rows]
    checks.add(f"{path.name} fitness in [0, 1]", all(_unit(f) for f in fitness))
    counters_ok = all(c.isdigit() for r in rows for c in r[1:-1])
    checks.add(f"{path.name} counters are non-negative integers",
               counters_ok and header[-2:] == ["UNKNOWN", "fitness"])


def _experiment(checks: Checks, outdir: Path, expect: dict) -> None:
    detectors = [d.upper() for d in expect["detectors"]]
    for seed in expect["seeds"]:
        path = outdir / f"seed_{seed}.csv"
        if not path.is_file():
            checks.add(f"{path.name} exists", False, "missing")
            continue
        header, rows = _rows(path)
        checks.add(f"{path.name} rows == detectors x eval sets",
                   len(rows) == len(detectors) * len(EVAL_SETS), f"{len(rows)} rows")
        values = [float(v) for r in rows for v in r[3:]]
        checks.add(f"{path.name} metrics and AUC in [0, 1]",
                   header[3:] == list(METRICS) and all(_unit(v) for v in values))
        checks.add(f"{path.name} covers every detector and set",
                   {(r[1], r[2]) for r in rows}
                   == {(s, d) for s in EVAL_SETS for d in detectors})
    path = outdir / "aggregate.csv"
    if not path.is_file():
        checks.add("aggregate.csv exists", False, "missing")
        return
    _, rows = _rows(path)
    checks.add("aggregate.csv rows == detectors x eval sets",
               len(rows) == len(detectors) * len(EVAL_SETS), f"{len(rows)} rows")
    means = [float(cell.split("±")[0]) for r in rows for cell in r[2:]]
    checks.add("aggregate.csv means in [0, 100] percent",
               all(math.isfinite(m) and 0.0 <= m <= 100.0 for m in means))


def _monitor(checks: Checks, outdir: Path, expect: dict) -> None:
    _check_diagnoses(checks, outdir / "diagnoses.csv", expect["normal"])
    for kind in expect["detectors"]:
        det = outdir / f"{kind}.det"
        head = det.read_text(encoding="utf-8").splitlines()[:2] if det.is_file() else []
        checks.add(f"{det.name} is a {kind} detector",
                   head == ["confmon-detector v1", f"kind={kind}"])

        pred = outdir / f"pred_{kind}.csv"
        if not pred.is_file():
            checks.add(f"{pred.name} exists", False, "missing")
            continue
        _, rows = _rows(pred)
        checks.add(f"{pred.name} rows == input traces", len(rows) == expect["eval"],
                   f"{len(rows)} rows for {expect['eval']} traces")
        checks.add(f"{pred.name} scores finite, predictions valid",
                   all(math.isfinite(float(r[1])) and r[2] in ("normal", "anomalous")
                       for r in rows))

        met = outdir / f"metrics_{kind}.csv"
        if not met.is_file():
            checks.add(f"{met.name} exists", False, "missing")
            continue
        _, rows = _rows(met)
        values = {r[0]: float(r[1]) for r in rows}
        counts = [values.get(k, -1) for k in ("tp", "tn", "fp", "fn")]
        checks.add(f"{met.name} confusion counts == input traces",
                   sum(counts) == expect["eval"]
                   and values.get("tp", 0) + values.get("fn", 0) == expect["anomalous"],
                   f"{counts}")
        checks.add(f"{met.name} metrics and AUC in [0, 1]",
                   "auc" in values
                   and all(_unit(values[k]) for k in ("accuracy", "precision", "recall",
                                                      "f1", "auc")))


def _long(checks: Checks, outdir: Path, expect: dict) -> None:
    for k, n_traces in enumerate(expect["batches"]):
        _check_diagnoses(checks, outdir / f"diagnoses_{k}.csv", n_traces)


_INVARIANTS = {
    "experiment": _experiment,
    "monitor_som": _monitor,
    "long_fn1": _long,
}
