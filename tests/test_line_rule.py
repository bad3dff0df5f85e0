"""The one line rule every text parser shares: blank lines are skipped, each
line is read without the whitespace around it, and a bad line is named by
the number str.splitlines gives it. On the command line the file is named
once, in front: "error: <path>: line N: ..."."""

from __future__ import annotations

import re
from importlib import resources

import pytest

import confmon.cli
from confmon.detect import load_detector, save_detector, train
from confmon.diagnoses import build_diagnoses, read_diagnoses, write_diagnoses
from confmon.errors import ConfmonError
from confmon.eventlog import parse_log
from confmon.experiment import parse_experiment_config
from confmon.petri import bundled_model, parse_model, playout

# Put between every two lines: CRLF breaks, whitespace-only lines and a form
# feed, which str.splitlines counts as a line break of its own.
SPACER = "\r\n\t \x0c \r\n"


def _fn1_diagnoses():
    fn1 = bundled_model("fn1")
    return build_diagnoses(fn1, playout(fn1, 20, seed=0))


def _model(text, tmp_path):
    net = parse_model(text, name="m")
    return (net.places, net.transitions, net.arcs, net.initial_marking, net.final_marking,
            net.labels)


def _predictions(text, tmp_path):
    path = tmp_path / "preds.csv"
    path.write_bytes(text.encode("utf-8"))
    return confmon.cli._read_predictions(str(path))


# reader -> (parse(text, tmp_path) -> a comparable result, valid text, a bad line)
READERS = {
    "trace-per-line log": (lambda text, tmp_path: parse_log(text),
                           lambda: "c1: t1 t2 | normal\nc2: t1 | anomalous\nc3:\n",
                           "c4 t1"),
    "CSV log": (lambda text, tmp_path: parse_log(text),
                lambda: "case,activity,label\nc1,t1,normal\nc1,t2,\nc2,t1,anomalous\n",
                "c3"),
    "model": (_model,
              lambda: (resources.files("confmon") / "models" / "fn1.net").read_text("utf-8"),
              "place"),
    "diagnoses": (lambda text, tmp_path: write_diagnoses(read_diagnoses(text)),
                  lambda: write_diagnoses(_fn1_diagnoses()),
                  "c99,1"),
    "detector": (lambda text, tmp_path: save_detector(load_detector(text)),
                 lambda: save_detector(train("ft", _fn1_diagnoses(), _fn1_diagnoses(), seed=0)),
                 "kind ft"),
    "predictions": (_predictions,
                    lambda: "case,score,prediction\nc1,0.0,normal\nc2,1.5,anomalous\n",
                    "c3,0.5"),
    "config": (lambda text, tmp_path: parse_experiment_config(text),
               lambda: "model = fn1  # bundled\nseeds = 0, 1\ndetectors = ft, ae\n",
               "n_traces 30"),
}


def _spaced(lines) -> str:
    """The lines, each with whitespace around it, joined by SPACER."""
    return SPACER.join(f" \t{line}  " for line in lines) + "\r\n"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_follows_the_one_line_rule(reader, tmp_path):
    parse, valid, bad = READERS[reader]
    text = valid()
    lines = text.splitlines()
    want = parse(text, tmp_path)
    # blank lines and whitespace around a line change nothing
    assert parse(_spaced(lines), tmp_path) == want
    # a bad line after the first line is named by its str.splitlines number
    spaced = _spaced([lines[0], bad, *lines[1:]])
    no = spaced.splitlines().index(f" \t{bad}  ") + 1
    assert no > 2
    with pytest.raises(ConfmonError) as got:
        parse(spaced, tmp_path)
    assert re.search(rf"\bline {no}\b", str(got.value)), str(got.value)


GOOD_LOG = "c1: t1 t2 t4 t5 t6 | normal\nc2: t1 t3 t4 t5 t6 | anomalous\n"

# file name -> (text with one bad line, the command that reads it first, the
# line, the message after "line N: ")
CLI_FILES = {
    "bad.log": ("c1: t1 t2\nc2 t1\n", ["check", "--model", "fn1", "--log", "{path}"],
                2, "expected '<case_id>: <activities>', got 'c2 t1'"),
    "bad.csv": ("case,activity\nc1,t1\n\nc2\n", ["check", "--model", "fn1", "--log", "{path}"],
                4, "wrong number of columns: 'c2'"),
    "bad.net": ("place p1\nplace\n", ["check", "--model", "{path}", "--log", "{good}"],
                2, "expected 'place <id>': 'place'"),
    "bad.det": ("confmon-detector v1\nkind ft\n",
                ["detect", "--detector", "{path}", "--model", "fn1", "--log", "{good}"],
                2, "expected key = value, got 'kind ft'"),
    "bad.preds": ("case,score,prediction\nc1,x,normal\n",
                  ["evaluate", "--preds", "{path}", "--log", "{good}"],
                  2, "bad score: 'x'"),
    "bad.cfg": ("model = fn1\n# seeds\nseeds 0\n", ["experiment", "--config", "{path}"],
                3, "expected key = value, got 'seeds 0'"),
}


@pytest.mark.parametrize("name", sorted(CLI_FILES))
def test_the_cli_names_the_file_of_a_bad_line_once(name, tmp_path, capsys):
    text, argv, no, message = CLI_FILES[name]
    path, good = tmp_path / name, tmp_path / "good.log"
    path.write_text(text, encoding="utf-8")
    good.write_text(GOOD_LOG, encoding="utf-8")
    argv = [arg.format(path=path, good=good) for arg in argv]
    assert confmon.cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: line {no}: {message}\n"
