"""Seeded mutation fuzz of the five text parsers.

Each parser gets a few hundred mutants of valid inputs: bit flips, deleted
and duplicated lines, and swapped tokens, up to three per mutant. A mutant
may parse or fail, but a failure must be a ConfmonError, never a stray
Python exception. A detector mutant that loads must also score, or fail
with a ConfmonError.
"""

from __future__ import annotations

import random
import re
from importlib import resources

import pytest

from confmon.experiment import parse_experiment_config
from confmon.detect import load_detector, save_detector, score_matrix, train
from confmon.diagnoses import build_diagnoses, read_diagnoses, write_diagnoses
from confmon.errors import ConfmonError
from confmon.eventlog import EventLog, Trace, parse_log, write_log, write_log_csv
from confmon.petri import NoiseParams, bundled_model, parse_model, playout

MUTANTS_PER_PARSER = 200

_TOKEN = re.compile(r"[^\s,=:|#]+")


def _flip_bit(text: str, rng: random.Random) -> str:
    data = bytearray(text.encode("utf-8"))
    if not data:
        return text
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return data.decode("utf-8", errors="replace")


def _delete_line(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    if lines:
        del lines[rng.randrange(len(lines))]
    return "".join(lines)


def _duplicate_line(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    if lines:
        i = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    return "".join(lines)


def _swap_tokens(text: str, rng: random.Random) -> str:
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if len(spans) < 2:
        return text
    (a0, a1), (b0, b1) = sorted(rng.sample(spans, 2))
    return text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]


_MUTATIONS = (_flip_bit, _delete_line, _duplicate_line, _swap_tokens)


def _mutants(seeds, count: int, salt: int):
    rng = random.Random(salt)
    for _ in range(count):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            text = rng.choice(_MUTATIONS)(text, rng)
        yield text


def _model_texts():
    base = resources.files("confmon") / "models"
    return [(base / f"{name}.net").read_text(encoding="utf-8") for name in ("fn1", "som")]


def _log_texts():
    fn1 = bundled_model("fn1")
    log = playout(fn1, 6, seed=3, noise=NoiseParams(0.1, 0.1))
    labeled = EventLog([Trace(tr.case_id, tr.events, label)
                        for tr, label in zip(log, ["normal", "anomalous"] * 3) if tr.events])
    return [write_log(log), write_log(labeled), write_log_csv(labeled)]


def _diagnoses_texts():
    fn1 = bundled_model("fn1")
    log = playout(fn1, 8, seed=4, noise=NoiseParams(0.2, 0.2))
    return [write_diagnoses(build_diagnoses(fn1, log))]


def _detector_texts():
    fn1 = bundled_model("fn1")
    train_d = build_diagnoses(fn1, playout(fn1, 12, seed=5, noise=NoiseParams(0.1, 0.1)))
    val_d = build_diagnoses(fn1, playout(fn1, 6, seed=6, noise=NoiseParams(0.1, 0.1)))
    params = {"ae": {"epochs": 5}}
    return [save_detector(train(kind, train_d, val_d, params.get(kind)))
            for kind in ("ft", "dbscan", "ae")]


def _config_texts():
    return ["# study\nmodel = som\nseeds = 0,1,2\nn_traces = 50\nlambda = 3.0\n"
            "p_drop = 0.03\np_dup = 0.03\nsplit = 0.6,0.2,0.2\nquantile = 95\n"
            "detectors = ft,dbscan,ae\npool = zz_a,zz_b\nmax_steps = 200\n"
            "outdir = results\n"]


@pytest.mark.parametrize("salt,parse,seeds", [
    (1, parse_model, _model_texts),
    (2, parse_log, _log_texts),
    (3, read_diagnoses, _diagnoses_texts),
    (4, load_detector, _detector_texts),
    (5, parse_experiment_config, _config_texts),
], ids=["parse_model", "parse_log", "read_diagnoses", "load_detector",
        "parse_experiment_config"])
def test_mutated_inputs_raise_only_confmon_errors(salt, parse, seeds):
    valid = seeds()
    for text in valid:
        parse(text)
    for text in _mutants(valid, MUTANTS_PER_PARSER, salt):
        try:
            parse(text)
        except ConfmonError:
            pass


def test_loaded_detector_mutants_score_or_raise_only_confmon_errors():
    """Every load_detector mutant that loads is scored on an fn1 diagnoses
    matrix, as confmon detect would score it; scoring may fail only with a
    ConfmonError."""
    fn1 = bundled_model("fn1")
    diag = build_diagnoses(fn1, playout(fn1, 20, seed=7, noise=NoiseParams(0.2, 0.2)))
    scored = 0
    for text in _mutants(_detector_texts(), MUTANTS_PER_PARSER, 4):
        try:
            det = load_detector(text)
        except ConfmonError:
            continue
        try:
            score_matrix(det, diag)
        except ConfmonError:
            continue
        scored += 1
    assert scored > 0
