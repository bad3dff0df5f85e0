from __future__ import annotations

import pytest

from confmon.cli import (ExperimentConfig, main, parse_experiment_config,
                         run_experiment)
from confmon.diagnoses import coverage, log_fitness
from confmon.errors import ConfmonError
from confmon.eventlog import parse_log, write_log
from confmon.petri import NoiseParams, playout


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def normal_log_file(fn1, tmp_path):
    path = tmp_path / "normal.log"
    path.write_text(write_log(playout(fn1, 40, seed=1)), encoding="utf-8")
    return path


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


def test_coverage_command(normal_log_file, capsys):
    assert run("coverage", "--model", "fn1", "--log", str(normal_log_file)) == 0
    assert capsys.readouterr().out.strip() == "coverage=1.000000"


def test_check_prints_log_fitness_and_coverage(som, tmp_path, capsys):
    log = playout(som, 60, seed=5, noise=NoiseParams(0.1, 0.1))
    path = tmp_path / "noisy.log"
    path.write_text(write_log(log), encoding="utf-8")
    fitness, cov = log_fitness(som, log), coverage(som, log)
    assert fitness < 1.0 and cov < 1.0
    assert run("check", "--model", "som", "--log", str(path)) == 0
    assert capsys.readouterr().out == f"fitness={fitness:.6f} coverage={cov:.6f}\n"
    assert run("coverage", "--model", "som", "--log", str(path)) == 0
    assert capsys.readouterr().out == f"coverage={cov:.6f}\n"


def test_empty_log_exits_one(normal_log_file, tmp_path, capsys):
    det_path = tmp_path / "det.txt"
    assert run("train", "--detector", "ft", "--model", "fn1",
               "--log", str(normal_log_file), "-o", str(det_path)) == 0
    empty = tmp_path / "empty.log"
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    for argv in (["check"], ["coverage"], ["detect", "--detector", str(det_path)]):
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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()


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
    with pytest.raises(ConfmonError, match="bad value"):
        parse_experiment_config("n_traces = many\n")
    with pytest.raises(ConfmonError, match="unknown detectors"):
        parse_experiment_config("detectors = ft,svm\n")
    with pytest.raises(ConfmonError, match="key = value"):
        parse_experiment_config("just words\n")


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


def test_experiment_rejects_pool_overlap(tmp_path):
    from dataclasses import replace

    bad = replace(MINI, pool=("t1", "z2"), outdir=str(tmp_path / "bad"))
    with pytest.raises(ConfmonError, match="pool overlaps"):
        run_experiment(bad)


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
