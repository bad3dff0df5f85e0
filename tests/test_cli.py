from __future__ import annotations

import hashlib
import inspect
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import confmon
import confmon.cli
import confmon.detect
import confmon.experiment
from confmon.cli import _parse_split, build_parser, main
from confmon.detect import DEFAULT_QUANTILE, DETECTOR_KINDS, train, train_group
from confmon.diagnoses import coverage, log_fitness
from confmon.errors import ConfmonError, ModelError
from confmon.eventlog import DEFAULT_SPLIT, parse_log, split_log, split_sizes, write_log
from confmon.experiment import (DEFAULT_N_TRACES, ExperimentConfig, _run_seeds, _seed_groups,
                                parse_experiment_config, run_experiment)
from confmon.inject import DEFAULT_LAMBDA, InjectionSpec, build_eval_sets
from confmon.petri import DEFAULT_MAX_STEPS, NoiseParams, load_model, playout


def run(*argv):
    return main(list(argv))


def test_simulate_writes_parseable_log(tmp_path):
    out = tmp_path / "sim.log"
    assert run("simulate", "--model", "fn1", "--n", "12", "--seed", "3",
               "-o", str(out)) == 0
    log = parse_log(out.read_text(encoding="utf-8"))
    assert len(log) == 12
    assert all(tr.events[-1] == "t6" for tr in log)


def test_simulate_stdout(capsys):
    assert run("simulate", "--model", "fn1", "--n", "2") == 0
    out = capsys.readouterr().out
    assert len(parse_log(out)) == 2


def test_check_clean_log(normal_log_file, tmp_path, capsys):
    diag_path = tmp_path / "diag.csv"
    assert run("check", "--model", "fn1", "--log", str(normal_log_file),
               "-o", str(diag_path)) == 0
    assert capsys.readouterr().out.strip() == "fitness=1.000000 coverage=1.000000"
    text = diag_path.read_text(encoding="utf-8")
    assert text.startswith("# confmon-diagnoses v1 model=fn1")
    assert "case,t1,t2,t3,t4,t5,t6,UNKNOWN,fitness" in text


def test_removed_coverage_command_is_a_usage_error(normal_log_file, capsys):
    """check prints coverage; a coverage subcommand is an unknown choice."""
    with pytest.raises(SystemExit) as exc:
        run("coverage", "--model", "fn1", "--log", str(normal_log_file))
    assert exc.value.code == 2
    assert "invalid choice: 'coverage'" in capsys.readouterr().err


def test_check_prints_log_fitness_and_coverage(som, tmp_path, capsys):
    log = playout(som, 60, seed=5, noise=NoiseParams(0.1, 0.1))
    path = tmp_path / "noisy.log"
    path.write_text(write_log(log), encoding="utf-8")
    fitness, cov = log_fitness(som, log), coverage(som, log)
    assert fitness < 1.0 and cov < 1.0
    assert run("check", "--model", "som", "--log", str(path)) == 0
    assert capsys.readouterr().out == f"fitness={fitness:.6f} coverage={cov:.6f}\n"


def test_empty_log_exits_one(normal_log_file, tmp_path, capsys):
    det_path = tmp_path / "det.txt"
    assert run("train", "--detector", "ft", "--model", "fn1",
               "--log", str(normal_log_file), "-o", str(det_path)) == 0
    empty = tmp_path / "empty.log"
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    for argv in (["check"], ["detect", "--detector", str(det_path)]):
        assert run(*argv, "--model", "fn1", "--log", str(empty)) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["0.5,nan,0.5", "nan,0.5,0.5", "0.5,0.5,inf",
                                   "inf,0.5,0.5"])
def test_non_finite_split_exits_one(split, normal_log_file, tmp_path, capsys):
    # a nan split used to end in a bare ValueError traceback
    assert run("train", "--detector", "ft", "--model", "fn1", "--log", str(normal_log_file),
               "--split", split, "-o", str(tmp_path / "det.txt")) == 1
    assert "split ratios must be positive, finite" in capsys.readouterr().err
    config = tmp_path / "exp.cfg"
    config.write_text(f"model = fn1\nseeds = 0\nn_traces = 20\nsplit = {split}\n"
                      "detectors = ft\n", encoding="utf-8")
    assert run("experiment", "--config", str(config),
               "--outdir", str(tmp_path / "out")) == 1
    assert "split ratios must be positive, finite" in capsys.readouterr().err


def test_inject_all_triples_the_log(normal_log_file, tmp_path):
    out = tmp_path / "anomalous.log"
    assert run("inject", "--log", str(normal_log_file), "--type", "all",
               "--seed", "7", "-o", str(out)) == 0
    injected = parse_log(out.read_text(encoding="utf-8"))
    assert len(injected) == 3 * 40
    assert all(tr.label == "anomalous" for tr in injected)
    prefixes = {tr.case_id.split("_", 1)[0] for tr in injected}
    assert prefixes == {"ma", "woa", "ua"}


def test_inject_pool_names_are_stripped_like_the_config_pool(normal_log_file, tmp_path):
    """--pool "z1, z2" names z1 and z2, as pool = z1, z2 does in an
    experiment config; the flag used to keep the space and refuse ' z2'."""
    assert parse_experiment_config("pool = z1, z2\n").pool == ("z1", "z2")
    out = tmp_path / "ua.log"
    assert run("inject", "--log", str(normal_log_file), "--type", "ua", "--pool", "z1, z2",
               "--seed", "7", "-o", str(out)) == 0
    injected = parse_log(out.read_text(encoding="utf-8"))
    clean = {a for tr in parse_log(normal_log_file.read_text(encoding="utf-8")) for a in tr.events}
    inserted = {a for tr in injected for a in tr.events} - clean
    assert inserted == {"z1", "z2"}


def test_inject_refuses_an_empty_pool_like_the_config(normal_log_file, capsys):
    """--pool "" names one empty activity, refused as pool = is in a config;
    only a missing --pool means the default pool."""
    assert run("inject", "--log", str(normal_log_file), "--type", "ua", "--pool", "") == 1
    assert ("error: unknown pool: activity must be a non-empty token without whitespace: ''"
            in capsys.readouterr().err)


def test_front_ends_share_each_default():
    """The library signatures, the CLI flags and ExperimentConfig read each
    shared default from its one constant."""
    parse = build_parser().parse_args
    simulate = parse(["simulate", "--model", "m"])
    assert simulate.max_steps == DEFAULT_MAX_STEPS == 200
    assert simulate.n == DEFAULT_N_TRACES == 50
    assert parse(["inject", "--log", "l", "--type", "ma"]).lam == DEFAULT_LAMBDA == 3.0
    flags = parse(["train", "--detector", "ft", "--model", "m", "--log", "l", "-o", "d"])
    assert flags.split == "0.6,0.2,0.2"
    assert _parse_split(flags.split) == DEFAULT_SPLIT == (0.6, 0.2, 0.2)
    assert flags.quantile == DEFAULT_QUANTILE == 95.0
    cfg = ExperimentConfig()
    assert (cfg.max_steps, cfg.lam, cfg.split, cfg.quantile, cfg.n_traces) == (
        DEFAULT_MAX_STEPS, DEFAULT_LAMBDA, DEFAULT_SPLIT, DEFAULT_QUANTILE, DEFAULT_N_TRACES)
    assert cfg.detectors == DETECTOR_KINDS == ("ft", "dbscan", "ae")

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(playout, "max_steps") == DEFAULT_MAX_STEPS
    assert default(split_log, "ratios") == default(split_sizes, "ratios") == DEFAULT_SPLIT
    assert default(train, "quantile") == default(train_group, "quantile") == DEFAULT_QUANTILE
    assert default(build_eval_sets, "lam") == default(InjectionSpec, "lam") == DEFAULT_LAMBDA


def test_train_detect_evaluate_pipeline(fn1, normal_log_file, tmp_path, capsys):
    det_path = tmp_path / "det.txt"
    assert run("train", "--detector", "ft", "--model", "fn1",
               "--log", str(normal_log_file), "-o", str(det_path)) == 0
    assert "trained ft detector" in capsys.readouterr().out
    assert det_path.read_text(encoding="utf-8").startswith("confmon-detector v1")

    # labeled evaluation log: clean playout plus deletions from a fresh one
    clean = playout(fn1, 10, seed=50)
    labeled = [f"{tr.case_id}: {' '.join(tr.events)} | normal" for tr in clean]
    source = playout(fn1, 10, seed=60)
    for tr in source:
        labeled.append(f"x_{tr.case_id}: {' '.join(tr.events[:-2])} | anomalous")
    eval_path = tmp_path / "eval.log"
    eval_path.write_text("\n".join(labeled) + "\n", encoding="utf-8")

    preds_path = tmp_path / "preds.csv"
    assert run("detect", "--detector", str(det_path), "--model", "fn1",
               "--log", str(eval_path), "-o", str(preds_path)) == 0
    lines = preds_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case,score,prediction"
    assert len(lines) == 21

    metrics_path = tmp_path / "metrics.csv"
    roc_path = tmp_path / "roc.csv"
    assert run("evaluate", "--preds", str(preds_path), "--log", str(eval_path),
               "-o", str(metrics_path), "--roc", str(roc_path)) == 0
    rows = dict(line.split(",") for line in
                metrics_path.read_text(encoding="utf-8").splitlines()[1:])
    assert set(rows) == {"tp", "tn", "fp", "fn",
                         "accuracy", "precision", "recall", "f1", "auc"}
    # every trace with a chopped tail misses at least one mandatory event
    assert rows["recall"] == "1.000000"
    assert rows["fp"] == "0"
    roc_lines = roc_path.read_text(encoding="utf-8").splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert roc_lines[1] == "0.000000,0.000000"
    assert roc_lines[-1] == "1.000000,1.000000"


def test_detect_rejects_a_detector_of_another_model(normal_log_file, tmp_path, capsys):
    det_path = tmp_path / "det.txt"
    assert run("train", "--detector", "ft", "--model", "fn1",
               "--log", str(normal_log_file), "-o", str(det_path)) == 0
    capsys.readouterr()
    assert run("detect", "--detector", str(det_path), "--model", "som",
               "--log", str(normal_log_file)) == 1
    err = capsys.readouterr().err
    assert "trained on model 'fn1', not on --model 'som'" in err


def test_evaluate_requires_labels(normal_log_file, tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc1,0.0,normal\n", encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(normal_log_file)) == 1
    assert "carries no label" in capsys.readouterr().err


def test_evaluate_rejects_unknown_case(tmp_path, capsys):
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc9,0.0,normal\n", encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    assert "unknown case" in capsys.readouterr().err


def test_evaluate_rejects_a_repeated_case(tmp_path, capsys):
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc1,0.0,normal\nc1,0.0,normal\n",
                     encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    assert "line 3: repeated prediction for case 'c1'" in capsys.readouterr().err


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "x"])
def test_evaluate_rejects_a_bad_score(score, tmp_path, capsys):
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\nc2: t1 | anomalous\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text(f"case,score,prediction\nc1,0.0,normal\nc2,{score},anomalous\n",
                     encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    assert f"line 3: bad score: {score!r}" in capsys.readouterr().err


@pytest.mark.parametrize("pred", ["Anomalous", "yes", ""])
def test_evaluate_rejects_a_bad_prediction_where_it_reads_it(pred, tmp_path, capsys):
    """A prediction cell other than normal or anomalous fails in the reader,
    naming the file and the line, not later in the metrics."""
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\nc2: t1 | anomalous\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text(f"case,score,prediction\nc1,0.0,normal\nc2,1.0,{pred}\n",
                     encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    assert capsys.readouterr().err == (
        f"error: {preds}: line 3: prediction must be one of ('normal', 'anomalous'), "
        f"got {pred!r}\n")


def test_evaluate_rejects_labeled_cases_without_a_prediction(tmp_path, capsys):
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\nc2: t1 | normal\nc3: t1 | anomalous\n",
                   encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc1,0.0,normal\n", encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    err = capsys.readouterr().err
    assert "2 labeled case(s) in" in err
    assert "have no prediction, first 'c2'" in err


def test_evaluate_roc_of_one_class_writes_nothing(tmp_path, capsys):
    """--roc with a ground truth of one class fails before any file is
    written: neither the metrics CSV nor the ROC points appear."""
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\nc2: t1 | normal\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc1,0.0,normal\nc2,1.0,anomalous\n",
                     encoding="utf-8")
    out, roc = tmp_path / "m.csv", tmp_path / "roc.csv"
    assert run("evaluate", "--preds", str(preds), "--log", str(log),
               "-o", str(out), "--roc", str(roc)) == 1
    assert "ROC curve needs both classes" in capsys.readouterr().err
    assert not out.exists() and not roc.exists()


def test_predictions_header_is_the_first_non_blank_line(tmp_path, capsys):
    log = tmp_path / "truth.log"
    log.write_text("c1: t1 | normal\nc2: t1 | anomalous\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("\ncase,score,prediction\nc1,0.0,normal\nc2,1.0,anomalous\n",
                     encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 0
    capsys.readouterr()
    preds.write_text("\nc1,0.0,normal\nc2,1.0,anomalous\n", encoding="utf-8")
    assert run("evaluate", "--preds", str(preds), "--log", str(log)) == 1
    assert "expected header" in capsys.readouterr().err


def test_domain_errors_exit_one(tmp_path, capsys):
    assert run("check", "--model", "no_such_model", "--log", "no_such.log") == 1
    assert "error:" in capsys.readouterr().err
    assert run("detect", "--detector", str(tmp_path / "missing.det"),
               "--model", "fn1", "--log", "x.log") == 1
    assert "cannot read detector" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["log file", "model file", "predictions file", "detector file",
                                  "config"])
def test_an_undecodable_input_file_exits_one(kind, cli_input_files, tmp_path, capsys):
    """A byte that is not UTF-8, here 0xff after the file's first line,
    ends in exit 1 and an error line that names the file, not in a
    UnicodeDecodeError traceback."""
    path, argv = cli_input_files[kind]
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    capsys.readouterr()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {kind} {path}: ")
    assert "can't decode byte 0xff" in captured.err and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_a_decode_error_names_its_line_and_file_offset(som, tmp_path, capsys):
    """The text reader decodes a file in 8 KiB chunks and counts the bad
    byte's position from its chunk: 0xff at offset 20 000 of a 99 KB som
    log read "position 3616". The error line names the line and the offset
    in the file instead."""
    data = write_log(playout(som, 600, seed=0)).encode()
    assert len(data) > 90_000
    path = tmp_path / "som.log"
    path.write_bytes(data[:20_000] + b"\xff" + data[20_000:])
    line = data.count(b"\n", 0, 20_000) + 1
    assert line == 122
    capsys.readouterr()
    assert run("check", "--model", "som", "--log", str(path)) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read log file {path}: line {line}, byte 20000: "
        "can't decode byte 0xff (invalid start byte)\n")


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_model_decode_error_names_its_line_and_file_offset(bom, tmp_path, capsys):
    """check --model on som.net with 0xff at offset 224, on line 5, names
    that line and offset. Behind a leading byte-order mark the byte sits at
    file offset 227, which the error names, where the utf-8-sig codec
    counts 224. The same file as a --log names the same line and offset."""
    data = (resources.files("confmon") / "models" / "som.net").read_bytes()
    data = bom + data[:224] + b"\xff" + data[224:]
    at = 224 + len(bom)
    assert data.count(b"\n", 0, at) + 1 == 5
    path = tmp_path / "som.net"
    path.write_bytes(data)
    tail = f"line 5, byte {at}: can't decode byte 0xff (invalid start byte)\n"
    capsys.readouterr()
    assert run("check", "--model", str(path), "--log", str(path)) == 1
    assert capsys.readouterr().err == f"error: cannot read model file {path}: {tail}"
    assert run("check", "--model", "som", "--log", str(path)) == 1
    assert capsys.readouterr().err == f"error: cannot read log file {path}: {tail}"
    with pytest.raises(ModelError, match=f"^cannot read model file .*: line 5, byte {at}: "):
        load_model(path)


def test_a_nul_or_a_stray_byte_order_mark_in_a_log_exits_one(tmp_path, capsys):
    """A NUL or a U+FEFF inside an activity is not part of its name: check
    exits 1 and names the line, where it used to read them as unknown
    activities and print fitness=0.285714."""
    for text, line, bad in [("c1: t1 t\x002\nc2: t1 t2\n", 1, r"'t\x002'"),
                            ("c1: t1 t2\nc2: t1 t2\ufeff\n", 2, r"'t2\ufeff'")]:
        path = tmp_path / "odd.log"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run("check", "--model", "fn1", "--log", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: activity may not contain NUL or U+FEFF: {bad}\n")


@pytest.mark.parametrize("kind", ["log file", "predictions file"])
def test_a_leading_byte_order_mark_is_dropped(kind, cli_input_files, capsys):
    """A UTF-8 byte-order mark at the start of a file is not part of its
    first line: the command prints what it prints without one."""
    path, argv = cli_input_files[kind]
    capsys.readouterr()
    assert run(*argv) == 0
    want = capsys.readouterr().out
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run(*argv) == 0
    assert capsys.readouterr().out == want


def test_a_comma_in_a_name_written_to_a_csv_exits_one(normal_log_file, tmp_path, capsys):
    """',' separates the fields of the diagnoses, detector and predictions
    files, so an activity or a case id that holds one is refused where it
    is read, and no file is written."""
    model = tmp_path / "comma.net"
    model.write_text("place p1\nplace p2\ntrans ta label a,b\narc p1 ta\narc ta p2\n"
                     "init p1 1\nfinal p2 1\n", encoding="utf-8")
    assert run("train", "--detector", "ft", "--model", str(model), "--log",
               str(normal_log_file), "-o", str(tmp_path / "det.txt")) == 1
    assert "activity name may not contain ',': 'a,b'" in capsys.readouterr().err
    log = tmp_path / "comma.log"
    log.write_text("c1: t1 t2 t4 t5 t6\na,b: t1 t3 t4 t5 t6\n", encoding="utf-8")
    diag = tmp_path / "diag.csv"
    assert run("check", "--model", "fn1", "--log", str(log), "-o", str(diag)) == 1
    assert "line 2: case id may not contain ',': 'a,b'" in capsys.readouterr().err
    assert not (tmp_path / "det.txt").exists() and not diag.exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(normal_log_file, capsys):
    """main builds its parser on its first call and reuses it: in one
    process a usage error (exit 2), then a valid check, then simulate and
    check in a row give the exit codes and output of the same calls each
    with a freshly built parser. build_parser still returns a new parser."""
    calls = [["check", "--model", "fn1"],
             ["check", "--model", "fn1", "--log", str(normal_log_file)],
             ["simulate", "--model", "fn1", "--n", "3", "--seed", "5"],
             ["check", "--model", "fn1", "--log", str(normal_log_file)]]

    def outcomes(fresh: bool) -> list:
        got = []
        for argv in calls:
            if fresh:
                confmon.cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    confmon.cli._parser.cache_clear()
    shared = outcomes(fresh=False)
    assert confmon.cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert "the following arguments are required: --log" in shared[0][2]
    assert shared[1][1].startswith("fitness=") and shared[3] == shared[1]
    assert outcomes(fresh=True) == shared
    assert build_parser() is not build_parser()


def python(*argv):
    """Run python <argv> in a fresh interpreter that imports this package.
    A RuntimeWarning, such as runpy's warning that the module was imported
    before it ran, fails the child as it would fail this suite."""
    src = str(Path(confmon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# confmon.__all__, the package's public names
PUBLIC_NAMES = [
    "ANOMALY_TYPES", "Alignment", "AlignmentError", "ConfmonError", "Confusion", "CostScheme",
    "DEFAULT_UNKNOWN_POOL", "DETECTOR_KINDS", "DetectError", "Detector", "DiagnosesMatrix",
    "EventLog", "ExperimentConfig", "InjectError", "InjectionSpec", "LogError", "LogStats",
    "MetricsError", "ModelError", "Move", "NoiseParams", "PetriNet", "PlayoutError",
    "PrfResult", "RocCurve", "SKIP", "SoundnessReport", "Trace", "UNKNOWN",
    "ae_gradient_check", "alignment", "build_diagnoses", "build_eval_sets", "bundled_model",
    "check_soundness", "classify", "cli", "confusion", "coverage", "default_ae_layers",
    "detect", "diagnoses", "diagnosis_columns", "enabled", "errors", "eventlog", "fire",
    "inject", "inject_log", "inject_trace", "is_workflow_net", "load_detector",
    "load_model", "log_fitness", "main", "metrics", "misalignments", "optimal_alignment",
    "parse_experiment_config", "parse_log", "parse_model", "petri", "playout", "prf",
    "read_diagnoses", "roc_auc", "run_experiment", "save_detector", "score_matrix",
    "split_log", "stats", "trace_fitness", "train", "train_group", "worst_case_cost",
    "write_diagnoses", "write_log", "write_log_csv"]

# numpy 1.x imports numpy.random and numpy.ma with numpy, numpy 2.x on first
# use; training must not be their first use.
IMPORT_BOUNDARY = f"""
import sys
import numpy
lazy = {{"numpy.random", "numpy.ma"}} - set(sys.modules)
import confmon
assert "confmon.cli" not in sys.modules, "import confmon imported confmon.cli"
assert confmon.run_experiment is confmon.experiment.run_experiment
assert confmon.__all__ == {PUBLIC_NAMES!r}, confmon.__all__
from confmon.detect import train
from confmon.diagnoses import build_diagnoses
from confmon.petri import NoiseParams, bundled_model, playout
fn1 = bundled_model("fn1")
d_train, d_val = (build_diagnoses(fn1, playout(fn1, 12, seed=s, noise=NoiseParams(0.1, 0.1)))
                  for s in (1, 2))
for kind, params in [("ft", None), ("dbscan", None), ("ae", {{"epochs": 3}})]:
    train(kind, d_train, d_val, params)
assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
import os
import tempfile
import confmon.cli
from confmon.experiment import ExperimentConfig, run_experiment
os.environ.pop("CONFMON_THREADS", None)
with tempfile.TemporaryDirectory() as tmp:
    run_experiment(ExperimentConfig(model="fn1", seeds=(0, 1), n_traces=20, detectors=("ft",),
                                    outdir=os.path.join(tmp, "out")))
pools = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
assert not pools, pools
"""


def test_python_m_runs_the_cli(som, tmp_path):
    """python -m confmon runs a command and exits 0; a bad subcommand exits
    2. python -m confmon.cli runs the same command. import confmon leaves
    confmon.cli unimported, exports the harness from confmon.experiment and
    keeps its public names, and training each detector kind imports neither
    numpy.random nor numpy.ma where numpy leaves them lazy. import
    confmon.cli and a sequential run_experiment import neither
    concurrent.futures nor multiprocessing: only a pool needs them."""
    path = tmp_path / "som.log"
    log = playout(som, 20, seed=4)
    path.write_text(write_log(log), encoding="utf-8")
    want = f"fitness={log_fitness(som, log):.6f} coverage={coverage(som, log):.6f}\n"
    for module in ("confmon", "confmon.cli"):
        done = python("-m", module, "check", "--model", "som", "--log", str(path))
        assert (done.returncode, done.stdout) == (0, want), done.stderr
    assert python("-m", "confmon", "frobnicate").returncode == 2
    done = python("-c", IMPORT_BOUNDARY)
    assert done.returncode == 0, done.stderr


def test_parse_experiment_config_full():
    cfg = parse_experiment_config(
        "# comment\n"
        "model = fn1\n"
        "seeds = 3,4\n"
        "n_traces = 25\n"
        "lambda = 2.5\n"
        "p_drop = 0.1\n"
        "p_dup = 0.0\n"
        "split = 0.5,0.25,0.25\n"
        "quantile = 90\n"
        "detectors = ft,dbscan\n"
        "pool = z1,z2\n"
        "max_steps = 150\n"
        "outdir = out\n")
    assert cfg == ExperimentConfig(model="fn1", seeds=(3, 4), n_traces=25,
                                   lam=2.5, p_drop=0.1, p_dup=0.0,
                                   split=(0.5, 0.25, 0.25), quantile=90.0,
                                   detectors=("ft", "dbscan"), pool=("z1", "z2"),
                                   max_steps=150, outdir="out")
    assert parse_experiment_config("") == ExperimentConfig()


def test_parse_experiment_config_errors():
    with pytest.raises(ConfmonError, match="unknown key"):
        parse_experiment_config("zap = 1\n")
    with pytest.raises(ConfmonError, match="^line 1: bad value for 'n_traces'"):
        parse_experiment_config("n_traces = many\n")
    with pytest.raises(ConfmonError,
                       match=r"^line 2: bad value for 'detectors': unknown detectors"):
        parse_experiment_config("model = fn1\ndetectors = ft,svm\n")
    with pytest.raises(ConfmonError, match="^line 3: bad value for 'split': .*'x'"):
        parse_experiment_config("# splits\n\nsplit = 0.6,x,0.2\n")
    with pytest.raises(ConfmonError, match="key = value"):
        parse_experiment_config("just words\n")
    with pytest.raises(ConfmonError, match="^line 3: key 'seeds' given more than once"):
        parse_experiment_config("seeds = 0\n# again\nseeds = 1,2\n")


@pytest.mark.parametrize("text, message", [
    ("n_traces = many\nzap = 1\n", "line 1: bad value for 'n_traces'"),
    ("zap = 1\nseeds 0\n", "line 1: unknown key 'zap'"),
    ("model = fn1\nseeds 0\nmodel = som\n", "line 2: expected key = value"),
    ("seeds = 0\nseeds = 1\nzap = 1\n", "line 2: key 'seeds' given more than once"),
])
def test_a_config_with_two_bad_lines_names_the_first(text, message):
    with pytest.raises(ConfmonError, match=f"^{re.escape(message)}"):
        parse_experiment_config(text)


MINI = ExperimentConfig(model="fn1", seeds=(0, 1), n_traces=20, outdir="")


def read_outputs(outdir):
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}


def test_experiment_outputs_and_determinism(tmp_path):
    from dataclasses import replace

    res1 = run_experiment(replace(MINI, outdir=str(tmp_path / "r1")))
    res2 = run_experiment(replace(MINI, outdir=str(tmp_path / "r2")))
    files1 = read_outputs(tmp_path / "r1")
    files2 = read_outputs(tmp_path / "r2")
    assert set(files1) == {"seed_0.csv", "seed_1.csv", "aggregate.csv"}
    assert files1 == files2
    assert len(res1["per_seed"]) == 2 * 3 * 4  # seeds x detectors x eval sets
    header = files1["seed_0.csv"].decode().splitlines()[0]
    assert header == "seed,anomaly,technique,accuracy,recall,precision,f1,auc"
    agg = files1["aggregate.csv"].decode().splitlines()
    assert agg[0] == "anomaly,technique,accuracy,recall,precision,f1,auc"
    assert len(agg) == 1 + 4 * 3
    assert all("±" in line for line in agg[1:])
    assert res1["aggregate"][("ma", "ft")]["f1"] == res2["aggregate"][("ma", "ft")]["f1"]


def test_experiment_parallel_matches_sequential(tmp_path, monkeypatch):
    from dataclasses import replace

    monkeypatch.delenv("CONFMON_THREADS", raising=False)
    run_experiment(replace(MINI, outdir=str(tmp_path / "seq")))
    monkeypatch.setenv("CONFMON_THREADS", "2")
    run_experiment(replace(MINI, outdir=str(tmp_path / "par")))
    assert read_outputs(tmp_path / "seq") == read_outputs(tmp_path / "par")


# Digests of the files of AE_FT's run, recorded while each seed still trained
# its own autoencoder; they hold the stacked training and the row order to
# those bytes.
AE_FT = ExperimentConfig(model="fn1", seeds=(0, 1, 2), n_traces=20,
                         detectors=("ae", "ft"), outdir="")
AE_FT_SHA256 = {
    "aggregate.csv": "96f9bc988b87558ee3dd604e7a783cc761f7b0e7be276224946f79bf70b11a0a",
    "seed_0.csv": "0fb6dabec182f9424282faa674a336c60171bba669196e40c0c6c068d6bf21e0",
    "seed_1.csv": "0dbd552a980e297705b6056d3e8ba21e991eb7c599f5198e3e352cd2522495e4",
    "seed_2.csv": "8c064bb6fb9ab8ce7b03c5713f84c63784edaae56e7f7cb51c55553c806b08e4",
}


# Digests of the files of FT_DBSCAN's run, recorded while ft and dbscan still
# trained seed by seed; they hold group training to those bytes.
FT_DBSCAN = ExperimentConfig(model="fn1", seeds=(0, 1, 2), n_traces=20,
                             detectors=("ft", "dbscan"), outdir="")
FT_DBSCAN_SHA256 = {
    "aggregate.csv": "9af68464f32d1449c48411bc9ec0e9b4249bea6400515836bb93b8fcfd1df988",
    "seed_0.csv": "02a55522d31a01f4f50e29f049528e35c9b5871376d6acb750055ef5d1ea5378",
    "seed_1.csv": "ed30feea4448d13bb8a496f8820c63739317c1cdc89605664fb1a6b26253ebc6",
    "seed_2.csv": "c96398202d887a98a5662c0ebe990899c5c28e6faee222c8bf62f2c6649b52ac",
}


def test_seed_groups_are_contiguous_and_even():
    assert _seed_groups((0, 1, 2), 2) == [(0, 1), (2,)]
    assert _seed_groups((0, 1, 2, 3, 4), 3) == [(0, 1), (2, 3), (4,)]
    assert _seed_groups((5, 6), 2) == [(5,), (6,)]
    assert _seed_groups((0, 1, 2), 1) == [(0, 1, 2)]


def test_experiment_trains_one_ae_stack_and_keeps_pinned_bytes(tmp_path, monkeypatch):
    from dataclasses import replace

    stacks = []
    real = confmon.detect._train_ae

    def spy(x, layers, lr, epochs, seeds):
        stacks.append(tuple(seeds))
        return real(x, layers, lr, epochs, seeds)

    monkeypatch.setattr(confmon.detect, "_train_ae", spy)
    monkeypatch.delenv("CONFMON_THREADS", raising=False)
    run_experiment(replace(AE_FT, outdir=str(tmp_path / "seq")))
    assert stacks == [(0, 1, 2)]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in read_outputs(tmp_path / "seq").items()}
    assert digests == AE_FT_SHA256
    # two workers take the uneven groups (0, 1) and (2,)
    monkeypatch.setenv("CONFMON_THREADS", "2")
    run_experiment(replace(AE_FT, outdir=str(tmp_path / "par")))
    assert read_outputs(tmp_path / "par") == read_outputs(tmp_path / "seq")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_experiment_keeps_pinned_ft_dbscan_bytes(tmp_path, monkeypatch, threads):
    from dataclasses import replace

    # two workers take the uneven groups (0, 1) and (2,)
    monkeypatch.setenv("CONFMON_THREADS", threads)
    run_experiment(replace(FT_DBSCAN, outdir=str(tmp_path)))
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in read_outputs(tmp_path).items()}
    assert digests == FT_DBSCAN_SHA256


def test_experiment_trains_each_kind_once_per_group(tmp_path, monkeypatch):
    """A seed group is the one unit of training: one train_group call per
    detector kind, in the configured order, over every seed of the group,
    and no single-seed train call."""
    from dataclasses import replace

    calls = []
    real = confmon.experiment.train_group

    def spy(kind, pairs, params=None, *, quantile, seeds):
        calls.append((kind, tuple(seeds)))
        return real(kind, pairs, params, quantile=quantile, seeds=seeds)

    def never(*args, **kwargs):
        raise AssertionError("the harness trained a single seed")

    monkeypatch.setattr(confmon.experiment, "train_group", spy)
    monkeypatch.setattr(confmon.detect, "train", never)
    monkeypatch.delenv("CONFMON_THREADS", raising=False)
    cfg = replace(MINI, seeds=(0, 1, 2), detectors=("dbscan", "ae", "ft"))
    result = run_experiment(replace(cfg, outdir=str(tmp_path)))
    assert calls == [("dbscan", (0, 1, 2)), ("ae", (0, 1, 2)), ("ft", (0, 1, 2))]
    # the groups two workers would take
    calls.clear()
    per_seed = _run_seeds(cfg, (0, 1)) + _run_seeds(cfg, (2,))
    assert [r for rows in per_seed for r in rows] == result["per_seed"]
    assert calls == [("dbscan", (0, 1)), ("ae", (0, 1)), ("ft", (0, 1)),
                     ("dbscan", (2,)), ("ae", (2,)), ("ft", (2,))]


def test_experiment_rejects_pool_overlap(tmp_path, monkeypatch):
    from dataclasses import replace

    # checked before the output directory is made or a worker starts
    for threads in ("1", "2"):
        monkeypatch.setenv("CONFMON_THREADS", threads)
        bad = replace(MINI, pool=("t1", "z2"), outdir=str(tmp_path / f"bad{threads}"))
        with pytest.raises(ConfmonError, match="pool overlaps"):
            run_experiment(bad)
        assert not (tmp_path / f"bad{threads}").exists()


def test_experiment_rejects_duplicate_seeds_and_detectors(tmp_path, capsys):
    from dataclasses import replace

    with pytest.raises(ConfmonError, match="experiment lists seed 1 more than once"):
        run_experiment(replace(MINI, seeds=(1, 0, 1), outdir=str(tmp_path / "s")))
    with pytest.raises(ConfmonError, match="experiment lists detector 'ft' more than once"):
        run_experiment(replace(MINI, detectors=("ft", "ae", "ft"), outdir=str(tmp_path / "d")))
    assert not (tmp_path / "s").exists() and not (tmp_path / "d").exists()
    cfg_path = tmp_path / "exp.cfg"
    for line, message in (("seeds = 0,0", "seed 0"), ("detectors = ft,ft", "detector 'ft'")):
        cfg_path.write_text(f"model = fn1\nn_traces = 20\n{line}\n", encoding="utf-8")
        assert run("experiment", "--config", str(cfg_path),
                   "--outdir", str(tmp_path / "cfg")) == 1
        assert f"experiment lists {message} more than once" in capsys.readouterr().err
    assert not (tmp_path / "cfg").exists()


def refuse_to_run_seeds(monkeypatch):
    """Makes any run of the seeds fail the test, so a check that passes it
    is known to act before the first seed."""
    def never(*args):
        raise AssertionError("a seed ran before the config was checked")

    monkeypatch.delenv("CONFMON_THREADS", raising=False)
    monkeypatch.setattr(confmon.experiment, "_run_seeds", never)


@pytest.mark.parametrize("field, value, message", [
    ("quantile", 150.0, "quantile must be in"),
    ("lam", -1.0, "lambda must be positive"),
    ("split", (0.5, 0.5), "split ratios must be a triple"),
    ("n_traces", 3, "leaves an empty part"),
    ("p_drop", 2.0, "p_drop must be in"),
    ("quantile", float("nan"), r"quantile must be in \[0, 100\], got nan"),
    ("lam", 800.0, "lambda must be at most about 708.4"),
    ("n_traces", -4, "leaves an empty part"),
    ("p_dup", -0.5, "p_dup must be in"),
    ("pool", (), "needs a non-empty unknown pool"),
    ("max_steps", 0, r"max_steps must be >= 1, got 0"),
    ("n_traces", 6, "need at least 5 training rows, got 4"),
    ("n_traces", 20.5, r"n_traces must be an integer, got 20.5"),
    ("max_steps", 1.5, r"max_steps must be an integer, got 1.5"),
])
def test_experiment_with_a_bad_value_leaves_no_outdir(tmp_path, monkeypatch, field, value,
                                                      message):
    """Each of these values fails before the first seed runs, and leaves no
    output directory behind."""
    from dataclasses import replace

    refuse_to_run_seeds(monkeypatch)
    out = tmp_path / "out"
    bad = replace(MINI, seeds=(0,), detectors=("ft",), outdir=str(out), **{field: value})
    with pytest.raises(ConfmonError, match=message):
        run_experiment(bad)
    assert not out.exists()


@pytest.mark.parametrize("pool, message", [
    ("x|y", "unknown pool: activity may not contain '|': 'x|y'"),
    ("a,,b", "unknown pool: activity must be a non-empty token without whitespace: ''"),
], ids=["bar", "empty"])
def test_experiment_refuses_a_bad_pool_name_before_the_first_seed(tmp_path, monkeypatch,
                                                                 capsys, pool, message):
    refuse_to_run_seeds(monkeypatch)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"model = fn1\nseeds = 0\nn_traces = 20\npool = {pool}\n",
                        encoding="utf-8")
    out = tmp_path / "out"
    assert run("experiment", "--config", str(cfg_path), "--outdir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_negative_seed_is_refused_only_for_ae(normal_log_file, tmp_path, monkeypatch,
                                               capsys):
    """An autoencoder draws its initial weights from default_rng(seed), which
    takes no negative seed: train refuses one for ae, naming it, and so does
    an experiment, before the first seed runs. ft and dbscan take it."""
    message = "error: an ae detector needs seeds that are integers >= 0, got seed -1\n"
    for kind in DETECTOR_KINDS:
        out = tmp_path / f"{kind}.det"
        code = run("train", "--detector", kind, "--model", "fn1", "--log", str(normal_log_file),
                   "--seed", "-1", "-o", str(out))
        assert (code, out.exists()) == ((1, False) if kind == "ae" else (0, True))
        assert capsys.readouterr().err == (message if kind == "ae" else "")
    refuse_to_run_seeds(monkeypatch)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("model = fn1\nseeds = 0,-1\nn_traces = 20\ndetectors = ft,ae\n",
                        encoding="utf-8")
    out = tmp_path / "out"
    assert run("experiment", "--config", str(cfg_path), "--outdir", str(out)) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_unwritable_outdir_fails_before_the_first_seed(tmp_path, monkeypatch, capsys):
    refuse_to_run_seeds(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("model = fn1\nseeds = 0,1\nn_traces = 20\n", encoding="utf-8")
    # a regular file on the way to the directory, or in its place
    for outdir in (blocker / "out", blocker / "a" / "b", blocker):
        assert run("experiment", "--config", str(cfg_path), "--outdir", str(outdir)) == 1
        assert capsys.readouterr().err == (f"error: cannot create output directory "
                                           f"{outdir}: {blocker} is not a writable directory\n")
    assert blocker.read_text(encoding="utf-8") == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "file"]


def test_unwritable_output_path_exits_one(tmp_path, capsys):
    """A path under a regular file ends in "error: ..." naming the path and
    exit 1, not a NotADirectoryError traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    target = blocker / "x.log"
    assert run("simulate", "--model", "fn1", "--n", "2", "-o", str(target)) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("model = fn1\nseeds = 0\nn_traces = 20\ndetectors = ft\n",
                        encoding="utf-8")
    outdir = blocker / "out"
    assert run("experiment", "--config", str(cfg_path), "--outdir", str(outdir)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot create output directory {outdir}: ")


@pytest.mark.parametrize("lam", ["800", "inf"])
def test_inject_rejects_a_lambda_whose_exp_underflows(lam, normal_log_file, tmp_path, capsys):
    out = tmp_path / "bad.log"
    assert run("inject", "--log", str(normal_log_file), "--type", "ma", "--lambda", lam,
               "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert "lambda must be at most about 708.4" in err and f"got {float(lam)}" in err
    assert not out.exists()
    assert run("inject", "--log", str(normal_log_file), "--type", "ma", "--lambda", "700",
               "-o", str(out)) == 0


def test_experiment_validates_threads(tmp_path, monkeypatch):
    from dataclasses import replace

    monkeypatch.setenv("CONFMON_THREADS", "lots")
    with pytest.raises(ConfmonError, match="CONFMON_THREADS"):
        run_experiment(replace(MINI, outdir=str(tmp_path / "x")))


def test_experiment_command_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("model = fn1\nseeds = 0\nn_traces = 20\ndetectors = ft\n",
                        encoding="utf-8")
    outdir = tmp_path / "results"
    assert run("experiment", "--config", str(cfg_path), "--outdir", str(outdir)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(outdir / "seed_0.csv") in printed
    assert str(outdir / "aggregate.csv") in printed
    assert (outdir / "aggregate.csv").exists()


LINE_BREAK_LOGS = {
    "lines": "c1: a b\r\n\r\nc2: a\x0cc3: b | normal\u2028c4: a\x85c5: b\rc6: a\n\n",
    "csv": "\n\x0ccase,activity,label\r\nc1,a,normal\x0c\nc1,b,\u2028c2,a,anomalous\r\n\x1c",
    "bad label": "c1: a\r\n\x0b\u2028c2: b | weird\nc3: a\n",
    "bad csv row": "case,activity\r\n\x0cc1,a\u2029c1,a,b\n",
    "bad case id": "c1: a\n\x0c\x0c\r\n  : b\n",
    "empty": "\r\n\x0c\n",
}


@pytest.mark.parametrize("name", sorted(LINE_BREAK_LOGS))
def test_log_file_streams_like_its_text(tmp_path, name):
    """The CLI parses a log file as it reads it; the lines it sees, and so
    every trace and every line number of an error, are those of parse_log
    on the file's text, whatever the line breaks: \\r\\n, a lone \\r, form
    feed, \\x85, \\u2028, \\u2029 and blank lines, in both formats."""
    path = tmp_path / "log.txt"
    path.write_bytes(LINE_BREAK_LOGS[name].encode("utf-8"))
    text = path.read_text(encoding="utf-8")
    try:
        want = parse_log(text)
    except ConfmonError as exc:
        with pytest.raises(type(exc)) as got:
            confmon.cli._read_log(str(path))
        assert str(got.value) == f"{path}: {exc}" and "line " in str(exc)
    else:
        assert confmon.cli._read_log(str(path)) == want
        assert parse_log(text.splitlines()) == want
        assert name == "empty" or len(want) >= 2
