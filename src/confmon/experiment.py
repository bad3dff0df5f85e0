"""The multi-seed experiment harness: the study that evaluates the monitor.

The harness simulates a normal log per seed, splits it, trains each
configured detector on normal diagnoses, injects anomalies into a fresh
noise-free playout of the same model (seed offset +1000), and scores the held
out normal test rows (negatives) against each injected set (positives). It
writes one numeric CSV per seed and an aggregate table of "mean ± std"
percentages across seeds. The seeds run in groups, and a group is the unit
of training: every seed of it is diagnosed, then each detector kind trains
once for the group (ae fits every seed's autoencoder in one stacked pass)
and scores seed by seed. A sequential run is one group. CONFMON_THREADS
caps seed-level parallelism (unset or 1 runs sequentially, 0 means one
worker per CPU) and cuts the seeds into one contiguous group per worker.
The output bytes do not depend on the grouping.

This module must not import confmon.cli: the package imports it, and
`python -m confmon.cli` must not find the CLI module already loaded.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

from .detect import (DEFAULT_QUANTILE, DETECTOR_KINDS, check_quantile, check_seeds,
                     check_train_rows, classify, score_matrix, train_group)
from .diagnoses import build_diagnoses
from .errors import ConfmonError, _fields, _lines, _write_text
from .eventlog import DEFAULT_SPLIT, split_log, split_sizes
from .inject import (ANOMALY_TYPES, DEFAULT_LAMBDA, DEFAULT_UNKNOWN_POOL, InjectionSpec,
                     build_eval_sets)
from .metrics import confusion, prf, roc_auc
from .petri import (DEFAULT_MAX_STEPS, NoiseParams, PetriNet, _resolve_model, check_playout,
                    playout)

DEFAULT_N_TRACES = 50
EVAL_SET_ORDER = ("ma", "woa", "ua", "all")
METRIC_ORDER = ("accuracy", "recall", "precision", "f1", "auc")


def _names(value: str) -> tuple:
    """The comma-separated names of a flag or config value, each stripped."""
    return tuple(v.strip() for v in value.split(","))


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults reproduce the reference study setup on the bundled som model."""

    model: str = "som"
    seeds: tuple = (0, 1, 2, 3, 4)
    n_traces: int = DEFAULT_N_TRACES
    lam: float = DEFAULT_LAMBDA
    p_drop: float = 0.03
    p_dup: float = 0.03
    split: tuple = DEFAULT_SPLIT
    quantile: float = DEFAULT_QUANTILE
    detectors: tuple = DETECTOR_KINDS
    pool: tuple = DEFAULT_UNKNOWN_POOL
    max_steps: int = DEFAULT_MAX_STEPS
    outdir: str = "results"


def _detector_kinds(value: str) -> tuple:
    kinds = _names(value)
    unknown = [k for k in kinds if k not in DETECTOR_KINDS]
    if unknown:
        raise ValueError(f"unknown detectors: {unknown}")
    return kinds


def parse_experiment_config(text: str) -> ExperimentConfig:
    """key = value lines (errors._fields) with # comments; an unknown key or
    a bad value raises a ConfmonError that names its line and key."""
    # key -> (ExperimentConfig field, converter of the value, which raises
    # ValueError on a bad value)
    fields = {
        "model": ("model", str),
        "seeds": ("seeds", lambda value: tuple(int(v) for v in value.split(","))),
        "n_traces": ("n_traces", int),
        "lambda": ("lam", float),
        "p_drop": ("p_drop", float),
        "p_dup": ("p_dup", float),
        "split": ("split", lambda value: tuple(float(v) for v in value.split(","))),
        "quantile": ("quantile", float),
        "detectors": ("detectors", _detector_kinds),
        "pool": ("pool", _names),
        "max_steps": ("max_steps", int),
        "outdir": ("outdir", str),
    }
    cfg = ExperimentConfig()
    for no, key, value in _fields(_lines(text.splitlines(), comment=True)):
        if key not in fields:
            raise ConfmonError(f"line {no}: unknown key {key!r}")
        field, convert = fields[key]
        try:
            cfg = replace(cfg, **{field: convert(value)})
        except ValueError as exc:
            raise ConfmonError(f"line {no}: bad value for {key!r}: {exc}") from exc
    return cfg


def _seed_diagnoses(cfg: ExperimentConfig, net: PetriNet, seed: int):
    """(train, validation, test, {anomaly type: injected}) diagnoses of one
    seed. Its logs are dropped on return; only the matrices are kept."""
    noise = NoiseParams(cfg.p_drop, cfg.p_dup)
    normal_log = playout(net, cfg.n_traces, max_steps=cfg.max_steps, seed=seed, noise=noise)
    train_log, val_log, test_log = split_log(normal_log, cfg.split, seed=seed)
    source = playout(net, cfg.n_traces, max_steps=cfg.max_steps, seed=seed + 1000)
    eval_logs = build_eval_sets(source, cfg.lam, cfg.pool, seed=seed)
    return (build_diagnoses(net, train_log), build_diagnoses(net, val_log),
            build_diagnoses(net, test_log),
            {at: build_diagnoses(net, eval_logs[at]) for at in ANOMALY_TYPES})


def _score_rows(det, d_test, d_eval) -> list:
    """The metric rows of one trained detector, one per eval set, under
    the seed it was trained with."""
    normal_scores = score_matrix(det, d_test).tolist()
    injected = {at: score_matrix(det, d_eval[at]).tolist() for at in ANOMALY_TYPES}
    injected["all"] = [s for at in ANOMALY_TYPES for s in injected[at]]
    rows = []
    for at in EVAL_SET_ORDER:
        scores = normal_scores + injected[at]
        labels = ["normal"] * len(normal_scores) + ["anomalous"] * len(injected[at])
        res = prf(confusion(labels, classify(det, scores)))
        roc = roc_auc(labels, scores)
        rows.append({"seed": det.seed, "anomaly": at, "technique": det.kind,
                     "accuracy": res.accuracy, "recall": res.recall,
                     "precision": res.precision, "f1": res.f1, "auc": roc.auc})
    return rows


def _run_seeds(cfg: ExperimentConfig, seeds) -> list:
    """The metric rows of each seed of a group, one list per seed, each
    ordered by cfg.detectors and then EVAL_SET_ORDER. Every seed is
    diagnosed first; then each kind trains once for the whole group, one
    detector per seed, and each detector scores its own seed."""
    net = _resolve_model(cfg.model)
    diagnosed = [_seed_diagnoses(cfg, net, seed) for seed in seeds]
    rows = [[] for _ in seeds]
    for kind in cfg.detectors:
        dets = train_group(kind, [d[:2] for d in diagnosed], quantile=cfg.quantile, seeds=seeds)
        for seed_rows, det, (_, _, d_test, d_eval) in zip(rows, dets, diagnosed):
            seed_rows.extend(_score_rows(det, d_test, d_eval))
    return rows


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("CONFMON_THREADS", "1").strip()
    try:
        value = int(raw)
    except ValueError:
        raise ConfmonError(f"CONFMON_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ConfmonError(f"CONFMON_THREADS must be >= 0, got {value}")
    if value == 0:
        value = os.cpu_count() or 1
    return max(1, min(value, n_tasks))


def _seed_groups(seeds: tuple, n: int) -> list:
    """The seeds cut into n contiguous groups whose sizes differ by at most
    one, the larger groups first."""
    size, extra = divmod(len(seeds), n)
    groups, lo = [], 0
    for i in range(n):
        hi = lo + size + (i < extra)
        groups.append(seeds[lo:hi])
        lo = hi
    return groups


def _check_outdir(outdir: Path) -> None:
    """ConfmonError unless outdir, if it exists, or else its nearest existing
    ancestor is a writable directory. Creates nothing."""
    probe = outdir
    try:
        while not probe.exists() and probe != probe.parent:
            probe = probe.parent
    except OSError as exc:
        raise ConfmonError(f"cannot create output directory {outdir}: {exc}") from exc
    if not (probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfmonError(f"cannot create output directory {outdir}: "
                           f"{probe} is not a writable directory")


def _check_experiment(cfg: ExperimentConfig) -> None:
    """The config's checks, run before the first seed so that a bad config
    fails at once and creates nothing: the seeds, detectors and pool; λ,
    the noise, the split of n_traces, its training rows, the playout
    counts n_traces and max_steps, the quantile and each detector's seeds,
    with the checks and messages a seed's run would meet them with; and the
    output path."""
    if not cfg.seeds:
        raise ConfmonError("experiment needs at least one seed")
    if not cfg.detectors:
        raise ConfmonError("experiment needs at least one detector")
    for what, values in (("seed", cfg.seeds), ("detector", cfg.detectors)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ConfmonError(f"experiment lists {what} {repeated!r} more than once")
    overlap = set(cfg.pool) & set(_resolve_model(cfg.model).visible_labels)
    if overlap:
        raise ConfmonError(f"unknown-activity pool overlaps model labels: {sorted(overlap)}")
    NoiseParams(cfg.p_drop, cfg.p_dup)
    InjectionSpec("all", cfg.lam, tuple(cfg.pool))
    # playout gives exactly n_traces traces, and training gets the first part
    check_train_rows(split_sizes(cfg.n_traces, cfg.split)[0])
    check_playout(cfg.n_traces, cfg.max_steps)
    check_quantile(cfg.quantile)
    for kind in cfg.detectors:
        check_seeds(kind, cfg.seeds)
    _check_outdir(Path(cfg.outdir))


def _results(cfg: ExperimentConfig):
    """(rows, aggregate): the metric rows of each seed, one list per seed in
    cfg.seeds order, and {(anomaly, technique): {metric: (mean, std)}} over
    the seeds, in EVAL_SET_ORDER, cfg.detectors and METRIC_ORDER order."""
    workers = _worker_count(len(cfg.seeds))
    if workers > 1:
        # imported here, so a sequential run, and every import of the
        # package, leaves concurrent.futures and multiprocessing unloaded
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = _seed_groups(tuple(cfg.seeds), workers)
            per_seed = [rows for group in pool.map(_run_seeds, repeat(cfg), groups)
                        for rows in group]
    else:
        per_seed = _run_seeds(cfg, tuple(cfg.seeds))
    all_rows = [r for rows in per_seed for r in rows]
    aggregate = {}
    for at in EVAL_SET_ORDER:
        for kind in cfg.detectors:
            cell = [r for r in all_rows if r["anomaly"] == at and r["technique"] == kind]
            aggregate[(at, kind)] = {
                m: (statistics.fmean(r[m] for r in cell), statistics.pstdev(r[m] for r in cell))
                for m in METRIC_ORDER}
    return per_seed, aggregate


def _write_results(cfg: ExperimentConfig, per_seed: list, aggregate: dict) -> list:
    """Write seed_<s>.csv per seed and aggregate.csv into cfg.outdir, made
    here; returns the written paths."""
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfmonError(f"cannot create output directory {outdir}: {exc}") from exc
    files = []
    header = "seed,anomaly,technique," + ",".join(METRIC_ORDER)
    for seed, rows in zip(cfg.seeds, per_seed):
        lines = [header]
        for r in rows:
            lines.append(",".join([str(r["seed"]), r["anomaly"].upper(), r["technique"].upper()]
                                  + [f"{r[m]:.6f}" for m in METRIC_ORDER]))
        path = outdir / f"seed_{seed}.csv"
        _write_text(str(path), "\n".join(lines) + "\n")
        files.append(str(path))
    agg_lines = ["anomaly,technique," + ",".join(METRIC_ORDER)]
    for (at, kind), stats in aggregate.items():
        agg_lines.append(",".join([at.upper(), kind.upper()]
                                  + [f"{mean * 100:.3f} ± {std * 100:.3f}"
                                     for mean, std in stats.values()]))
    agg_path = outdir / "aggregate.csv"
    _write_text(str(agg_path), "\n".join(agg_lines) + "\n")
    files.append(str(agg_path))
    return files


def run_experiment(cfg: ExperimentConfig):
    """Run every seed, write per-seed CSVs and the aggregate table.

    Returns {"per_seed": rows, "aggregate": {(anomaly, technique): {metric:
    (mean, std)}}, "files": written paths}. Output is byte-deterministic for a
    fixed config. A config that fails its checks runs no seed, and one that
    fails in a seed's run leaves no output directory behind.
    """
    _check_experiment(cfg)
    per_seed, aggregate = _results(cfg)
    files = _write_results(cfg, per_seed, aggregate)
    return {"per_seed": [r for rows in per_seed for r in rows], "aggregate": aggregate,
            "files": files}
