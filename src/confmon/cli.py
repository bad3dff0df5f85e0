"""Command line front end (confmon) of the monitor and of the experiment
harness in confmon.experiment.

Subcommands: simulate, check, inject, train, detect, evaluate, experiment.
Exit codes: 0 on success, 1 on a domain error (bad model file, unreachable
final marking, degenerate metrics, ...), 2 on usage errors. Every file the
commands read is UTF-8 text; a leading byte-order mark is dropped, and a file
that cannot be opened or decoded is a domain error that names the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .detect import (DEFAULT_QUANTILE, DETECTOR_KINDS, classify, load_detector, save_detector,
                     score_matrix, train)
from .diagnoses import build_diagnoses, write_diagnoses
from .errors import ConfmonError, DetectError, LogError
from .eventlog import DEFAULT_SPLIT, EventLog, parse_log, split_log, write_log
from .experiment import (DEFAULT_N_TRACES, ExperimentConfig, _names, _resolve_model, _write_text,
                         parse_experiment_config, run_experiment)
from .inject import ANOMALY_TYPES, DEFAULT_LAMBDA, DEFAULT_UNKNOWN_POOL, InjectionSpec, inject_log
from .metrics import confusion, prf, roc_auc
from .petri import DEFAULT_MAX_STEPS, NoiseParams, playout


def _read(path: str, what: str, read):
    """read(file) on the file opened as UTF-8 text, a leading byte-order mark
    dropped. An OSError or an undecodable byte met while opening or reading
    it is a ConfmonError that names the file."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return read(file)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfmonError(f"cannot read {what} {path}: {exc}") from exc


def _read_log(path: str) -> EventLog:
    """The log file parsed as it is read, line by line: each line of the
    file is split again with str.splitlines, so lines and their numbers are
    those of parse_log on the file's text."""
    return _read(path, "log file",
                 lambda file: parse_log(line for raw in file for line in raw.splitlines()))


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
    det = _read(args.detector, "detector file", lambda file: load_detector(file.read()))
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
    lines = _read(path, "predictions file", lambda file: file.read().splitlines())
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


def cmd_experiment(args) -> None:
    if args.config:
        cfg = _read(args.config, "config", lambda file: parse_experiment_config(file.read()))
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
    p.add_argument("--n", type=int, default=DEFAULT_N_TRACES,
                   help=f"number of traces (default {DEFAULT_N_TRACES})")
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
