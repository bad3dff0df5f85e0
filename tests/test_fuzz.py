"""Seeded mutation fuzz of the five text parsers and of the files the CLI
reads.

Each parser gets a few hundred mutants of valid inputs: bit flips, deleted
and duplicated lines, and swapped tokens, up to three per mutant. A mutant
may parse or fail, but a failure must be a ConfmonError, never a stray
Python exception. A detector mutant that loads must also score, or fail
with a ConfmonError.

The CLI gets byte-level mutants of each file kind it reads: invalid UTF-8,
NUL and byte-order-mark bytes, CRLF line ends and truncation. A command on
a mutant may succeed, or exit 1 or 2 with one error: line, but never end in
a traceback.
"""

from __future__ import annotations

import codecs
import random
import re
from importlib import resources

import pytest

from confmon.cli import main
from confmon.experiment import parse_experiment_config
from confmon.detect import load_detector, save_detector, score_matrix, train
from confmon.diagnoses import build_diagnoses, read_diagnoses, write_diagnoses
from confmon.errors import ConfmonError
from confmon.eventlog import EventLog, Trace, parse_log, write_log, write_log_csv
from confmon.petri import NoiseParams, bundled_model, parse_model, playout

MUTANTS_PER_PARSER = 200
MUTANTS_PER_FILE = 30

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


def _insert(data: bytes, rng: random.Random, piece: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + piece + data[at:]


def _invalid_utf8(data: bytes, rng: random.Random) -> bytes:
    # a bad lead byte, a lead byte cut short, a lone continuation, a surrogate
    return _insert(data, rng, rng.choice((b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80")))


def _nul(data: bytes, rng: random.Random) -> bytes:
    return _insert(data, rng, b"\x00")


def _bom(data: bytes, rng: random.Random) -> bytes:
    # at the start, where readers drop it, as often as anywhere else
    return codecs.BOM_UTF8 + data if rng.random() < 0.5 else _insert(data, rng, codecs.BOM_UTF8)


def _crlf(data: bytes, rng: random.Random) -> bytes:
    return data.replace(b"\n", b"\r\n")


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data) + 1)]


_BYTE_MUTATIONS = (_invalid_utf8, _nul, _bom, _crlf, _truncate)


@pytest.mark.parametrize("salt,kind", enumerate(
    ["log file", "model file", "predictions file", "detector file", "config"]))
def test_cli_exits_cleanly_on_byte_mutants_of_its_input_files(salt, kind, cli_input_files,
                                                               capsys):
    """Each mutant of one input file, one or two byte mutations of the valid
    file, is run through main as the command that reads it: exit 0, or exit
    1 or 2 with a single error: line on stderr. A log whose text, after the
    leading byte-order mark the reader drops, holds a NUL or a U+FEFF must
    exit 1: neither may be part of a token."""
    path, argv = cli_input_files[kind]
    valid = path.read_bytes()
    rng = random.Random(salt)
    not_text = 0
    for _ in range(MUTANTS_PER_FILE):
        data = valid
        for _ in range(rng.randint(1, 2)):
            data = rng.choice(_BYTE_MUTATIONS)(data, rng)
        path.write_bytes(data)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        if code:
            assert code in (1, 2), (code, data)
            assert err.endswith("\n") and err.count("\n") == 1, (err, data)
            assert err.startswith("error: ") or code == 2 and "error: " in err, (err, data)
        text = data.decode("utf-8", "replace").removeprefix("\ufeff")
        if kind == "log file" and ("\x00" in text or "\ufeff" in text):
            not_text += 1
            assert code == 1 and err.startswith("error: "), (code, err, data)
    assert not_text or kind != "log file"
