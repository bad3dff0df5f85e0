"""Command line front end (confmon) and the multi-seed experiment harness.

Subcommands: simulate, check, inject, train, detect, evaluate, experiment.
Exit codes: 0 on success, 1 on a domain error (bad model file, unreachable
final marking, degenerate metrics, ...), 2 on usage errors.

The experiment harness simulates a normal log per seed, splits it, trains
each configured detector on normal diagnoses, injects anomalies into a fresh
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
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

from .detect import (DEFAULT_QUANTILE, DETECTOR_KINDS, check_quantile, check_train_rows, classify,
                     load_detector, save_detector, score_matrix, train, train_group)
from .diagnoses import build_diagnoses, write_diagnoses
from .errors import ConfmonError, DetectError, LogError, ModelError
from .eventlog import DEFAULT_SPLIT, EventLog, parse_log, split_log, split_sizes, write_log
from .inject import (ANOMALY_TYPES, DEFAULT_LAMBDA, DEFAULT_UNKNOWN_POOL, InjectionSpec,
                     build_eval_sets, inject_log)
from .metrics import confusion, prf, roc_auc
from .petri import (DEFAULT_MAX_STEPS, NoiseParams, PetriNet, bundled_model, check_max_steps,
                    load_model, playout)

EVAL_SET_ORDER = ("ma", "woa", "ua", "all")
METRIC_ORDER = ("accuracy", "recall", "precision", "f1", "auc")


def _resolve_model(spec: str) -> PetriNet:
    path = Path(spec)
    if path.exists():
        return load_model(path)
    try:
        return bundled_model(spec)
    except ModelError:
        raise ModelError(f"model {spec!r} is neither a readable file nor a bundled model")


def _read_log(path: str) -> EventLog:
    """The log file parsed as it is read, line by line: each line of the
    file is split again with str.splitlines, so lines and their numbers are
    those of parse_log on the file's text."""
    try:
        with open(path, encoding="utf-8") as file:
            return parse_log(line for raw in file for line in raw.splitlines())
    except OSError as exc:
        raise LogError(f"cannot read log file {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfmonError(f"cannot write {path}: {exc}") from exc


def _emit(path, text: str) -> None:
    """Write the text to the --out path, or to stdout when there is none."""
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def cmd_simulate(args) -> None:
    net = _resolve_model(args.model)
    noise = NoiseParams(args.p_drop, args.p_dup)
    log = playout(net, args.n, max_steps=args.max_steps, seed=args.seed, noise=noise)
    _emit(args.out, write_log(log))


def cmd_check(args) -> None:
    net = _resolve_model(args.model)
    log = _read_log(args.log)
    diag = build_diagnoses(net, log)
    fitness, cov = diag.log_fitness(), diag.coverage()
    if args.out:
        _write_text(args.out, write_diagnoses(diag))
    print(f"fitness={fitness:.6f} coverage={cov:.6f}")


def cmd_inject(args) -> None:
    log = _read_log(args.log)
    pool = DEFAULT_UNKNOWN_POOL if args.pool is None else _names(args.pool)
    spec = InjectionSpec(args.type, args.lam, pool, args.seed)
    out = inject_log(log, spec)
    _emit(args.out, write_log(out))


def _parse_split(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise LogError(f"bad split {text!r}: {exc}") from exc


def cmd_train(args) -> None:
    net = _resolve_model(args.model)
    log = _read_log(args.log)
    train_log, val_log, _ = split_log(log, _parse_split(args.split), seed=args.seed)
    d_train = build_diagnoses(net, train_log)
    d_val = build_diagnoses(net, val_log)
    det = train(args.detector, d_train, d_val, quantile=args.quantile, seed=args.seed)
    _write_text(args.out, save_detector(det))
    print(f"trained {det.kind} detector on {len(d_train)} traces "
          f"(threshold={det.threshold:.6g})")


def cmd_detect(args) -> None:
    try:
        detector_text = Path(args.detector).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfmonError(f"cannot read detector file {args.detector}: {exc}") from exc
    det = load_detector(detector_text)
    net = _resolve_model(args.model)
    if det.model_id != net.name:
        raise DetectError(f"detector {args.detector} was trained on model "
                          f"{det.model_id!r}, not on --model {net.name!r}")
    log = _read_log(args.log)
    diag = build_diagnoses(net, log)
    if not len(diag):
        raise LogError("log has no traces")
    scores = score_matrix(det, diag).tolist()
    lines = ["case,score,prediction"]
    for case_id, s, pred in zip(diag.case_ids, scores, classify(det, scores)):
        lines.append(f"{case_id},{repr(s)},{pred}")
    _emit(args.out, "\n".join(lines) + "\n")


def _read_predictions(path: str):
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise LogError(f"cannot read predictions file {path}: {exc}") from exc
    rows = None  # case id -> (score, prediction), once the header is read
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if rows is None:
            if cells != ["case", "score", "prediction"]:
                raise LogError(f"{path}: expected header 'case,score,prediction'")
            rows = {}
            continue
        if len(cells) != 3:
            raise LogError(f"{path} line {no}: expected 3 cells, got {len(cells)}")
        case_id, cell, pred = cells
        try:
            score = float(cell)
        except ValueError:
            score = math.nan  # not a number: rejected below with nan and inf
        if not math.isfinite(score):
            raise LogError(f"{path} line {no}: bad score: {cell!r}")
        if case_id in rows:
            raise LogError(f"{path} line {no}: repeated prediction for case {case_id!r}")
        rows[case_id] = (score, pred)
    if not rows:
        raise LogError(f"{path}: no prediction rows")
    return rows


def cmd_evaluate(args) -> None:
    preds = _read_predictions(args.preds)
    truth_log = _read_log(args.log)
    truth = {}
    for tr in truth_log:
        if tr.label is None:
            raise LogError(f"trace {tr.case_id!r} in {args.log} carries no label")
        truth[tr.case_id] = tr.label
    labels = []
    predicted = []
    scores = []
    for case_id, (s, pred) in preds.items():
        if case_id not in truth:
            raise LogError(f"prediction for unknown case {case_id!r}")
        labels.append(truth[case_id])
        predicted.append(pred)
        scores.append(s)
    missing = [case_id for case_id in truth if case_id not in preds]
    if missing:
        raise LogError(f"{len(missing)} labeled case(s) in {args.log} have no prediction, "
                       f"first {missing[0]!r}")
    both = len(set(labels)) == 2
    if args.roc and not both:
        raise LogError("ROC curve needs both classes in the ground truth")
    c = confusion(labels, predicted)
    res = prf(c)
    lines = ["metric,value",
             f"tp,{c.tp}", f"tn,{c.tn}", f"fp,{c.fp}", f"fn,{c.fn}",
             f"accuracy,{res.accuracy:.6f}", f"precision,{res.precision:.6f}",
             f"recall,{res.recall:.6f}", f"f1,{res.f1:.6f}"]
    if both:
        roc = roc_auc(labels, scores)
        lines.append(f"auc,{roc.auc:.6f}")
    _emit(args.out, "\n".join(lines) + "\n")
    if args.roc:
        roc_lines = ["fpr,tpr"] + [f"{x:.6f},{y:.6f}" for x, y in roc.points]
        _write_text(args.roc, "\n".join(roc_lines) + "\n")


# -- experiment harness -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults reproduce the reference study setup on the bundled som model."""

    model: str = "som"
    seeds: tuple = (0, 1, 2, 3, 4)
    n_traces: int = 50
    lam: float = DEFAULT_LAMBDA
    p_drop: float = 0.03
    p_dup: float = 0.03
    split: tuple = DEFAULT_SPLIT
    quantile: float = DEFAULT_QUANTILE
    detectors: tuple = ("ft", "dbscan", "ae")
    pool: tuple = DEFAULT_UNKNOWN_POOL
    max_steps: int = DEFAULT_MAX_STEPS
    outdir: str = "results"


def _names(value: str) -> tuple:
    """The comma-separated names of a flag or config value, each stripped."""
    return tuple(v.strip() for v in value.split(","))


def _detector_kinds(value: str) -> tuple:
    kinds = _names(value)
    unknown = [k for k in kinds if k not in DETECTOR_KINDS]
    if unknown:
        raise ValueError(f"unknown detectors: {unknown}")
    return kinds


def parse_experiment_config(text: str) -> ExperimentConfig:
    """key = value lines with # comments; unknown keys are errors, and a bad
    value raises a ConfmonError that names its line and key."""
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
    given = set()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfmonError(f"config line {no}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfmonError(f"config line {no}: unknown key {key!r}")
        if key in given:
            raise ConfmonError(f"config line {no}: key {key!r} given more than once")
        given.add(key)
        field, convert = fields[key]
        try:
            cfg = replace(cfg, **{field: convert(value)})
        except ValueError as exc:
            raise ConfmonError(f"config line {no}: bad value for {key!r}: {exc}") from exc
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
    the noise, max_steps, the split of n_traces, its training rows and the
    quantile, with the checks and messages a seed's run would meet them
    with; and the output path."""
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
    check_max_steps(cfg.max_steps)
    # playout gives exactly n_traces traces, and training gets the first part
    check_train_rows(split_sizes(cfg.n_traces, cfg.split)[0])
    check_quantile(cfg.quantile)
    _check_outdir(Path(cfg.outdir))


def run_experiment(cfg: ExperimentConfig):
    """Run every seed, write per-seed CSVs and the aggregate table.

    Returns {"per_seed": rows, "aggregate": {(anomaly, technique): {metric:
    (mean, std)}}, "files": written paths}. Output is byte-deterministic for a
    fixed config.
    """
    _check_experiment(cfg)
    workers = _worker_count(len(cfg.seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = _seed_groups(tuple(cfg.seeds), workers)
            per_seed_lists = [rows for group in pool.map(_run_seeds, repeat(cfg), groups)
                              for rows in group]
    else:
        per_seed_lists = _run_seeds(cfg, tuple(cfg.seeds))

    # made only now, so a config that fails leaves no directory behind
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfmonError(f"cannot create output directory {outdir}: {exc}") from exc
    files = []
    all_rows = []
    header = "seed,anomaly,technique,accuracy,recall,precision,f1,auc"
    for seed, rows in zip(cfg.seeds, per_seed_lists):
        lines = [header]
        for r in rows:
            lines.append(",".join([str(r["seed"]), r["anomaly"].upper(), r["technique"].upper()]
                                  + [f"{r[m]:.6f}" for m in METRIC_ORDER]))
        path = outdir / f"seed_{seed}.csv"
        _write_text(str(path), "\n".join(lines) + "\n")
        files.append(str(path))
        all_rows.extend(rows)

    aggregate = {}
    agg_lines = ["anomaly,technique," + ",".join(METRIC_ORDER)]
    for at in EVAL_SET_ORDER:
        for kind in cfg.detectors:
            values = {m: [r[m] for r in all_rows
                          if r["anomaly"] == at and r["technique"] == kind]
                      for m in METRIC_ORDER}
            stats_cells = []
            agg_entry = {}
            for m in METRIC_ORDER:
                mean = statistics.fmean(values[m])
                std = statistics.pstdev(values[m])
                agg_entry[m] = (mean, std)
                stats_cells.append(f"{mean * 100:.3f} ± {std * 100:.3f}")
            aggregate[(at, kind)] = agg_entry
            agg_lines.append(",".join([at.upper(), kind.upper()] + stats_cells))
    agg_path = outdir / "aggregate.csv"
    _write_text(str(agg_path), "\n".join(agg_lines) + "\n")
    files.append(str(agg_path))
    return {"per_seed": all_rows, "aggregate": aggregate, "files": files}


def cmd_experiment(args) -> None:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfmonError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_experiment_config(text)
    else:
        cfg = ExperimentConfig()
    if args.outdir:
        cfg = replace(cfg, outdir=args.outdir)
    result = run_experiment(cfg)
    for path in result["files"]:
        print(path)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmon",
        description="Conformance-based control-flow anomaly detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate traces by stochastic playout")
    p.add_argument("--model", required=True, help="model file or bundled name (fn1, som)")
    p.add_argument("--n", type=int, default=50, help="number of traces (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--p-drop", type=float, default=0.0, help="per-event drop probability")
    p.add_argument("--p-dup", type=float, default=0.0, help="per-event duplicate probability")
    p.add_argument("-o", "--out", help="output log file (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="align a log and report fitness and coverage")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("-o", "--out", help="write the diagnoses CSV here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("inject", help="inject control-flow anomalies into a log")
    p.add_argument("--log", required=True)
    p.add_argument("--type", required=True, choices=ANOMALY_TYPES + ("all",))
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--pool", help="comma-separated unknown activity names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="output log file (default stdout)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("train", help="train a detector on a normal log")
    p.add_argument("--detector", required=True, choices=DETECTOR_KINDS)
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--split", default=",".join(map(str, DEFAULT_SPLIT)))
    p.add_argument("--quantile", type=float, default=DEFAULT_QUANTILE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="detector output file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score and classify a log with a trained detector")
    p.add_argument("--detector", required=True, help="detector file from train")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("-o", "--out", help="predictions CSV (default stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="compare predictions against labeled ground truth")
    p.add_argument("--preds", required=True, help="predictions CSV from detect")
    p.add_argument("--log", required=True, help="log whose traces carry labels")
    p.add_argument("-o", "--out", help="metrics CSV (default stdout)")
    p.add_argument("--roc", help="also write the ROC curve points here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the multi-seed detection experiment")
    p.add_argument("--config", help="key = value config file (defaults when omitted)")
    p.add_argument("--outdir", help="override the configured output directory")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
