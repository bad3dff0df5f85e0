"""Shared exception hierarchy.

Every domain failure raises a subclass of ConfmonError so the command line
front end can map it to a nonzero exit code without catching bare Exception.

The module also owns the package's text-file rules. _read opens every file
the package reads, all but the bundled models, and parses it inside the
call: UTF-8, a leading byte-order mark dropped, an OSError or an
undecodable byte raised as the caller's error class, naming the file and,
through _undecodable_at, the line and byte offset of a bad byte. It is also
the one place that names the file of a parse error: a ConfmonError the
parse raises comes out as the same class with "<path>: " in front, so a
parser's own messages never name a file, and a bad line's message starts
"line N: ". _write_text writes every file: UTF-8 with LF line breaks. _lines
is the line rule of every parser: blank lines skipped, each line stripped of
the whitespace around it, and lines numbered as str.splitlines numbers them.
_fields is the key = value rule of the config and detector files on top of
it: key and value stripped, a line without '=' or a repeated key refused.
"""

from __future__ import annotations

import os
from operator import itemgetter
from pathlib import Path


class ConfmonError(Exception):
    """Base class for all domain errors raised by this package."""


class ModelError(ConfmonError):
    """Malformed net structure or an operation on an incompatible marking."""


class LogError(ConfmonError):
    """Malformed event log text or an invalid trace."""


class PlayoutError(ConfmonError):
    """Stochastic playout could not produce the requested traces."""


class AlignmentError(ConfmonError):
    """Alignment search failed (state cap hit, or no path to the final marking)."""


class InjectError(ConfmonError):
    """Anomaly injection could not be applied to a trace."""


class DetectError(ConfmonError):
    """Detector training, scoring, or serialization failed."""


class MetricsError(ConfmonError):
    """Metric computation on degenerate input (e.g. single-class ROC)."""


def _undecodable_at(path) -> str | None:
    """The line, numbered as str.splitlines numbers it, and the byte offset
    of the regular file's first byte that is not UTF-8, found by decoding
    its bytes again, since a text reader counts positions from the start of
    its last read chunk. None for a file that cannot be read again (a pipe)
    or now decodes."""
    try:
        if os.path.isfile(path):
            with open(path, "rb") as file:
                data = file.read()
            data.decode("utf-8")
    except OSError:
        pass
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        return (f"line {line}, byte {exc.start}: can't decode byte "
                f"0x{data[exc.start]:02x} ({exc.reason})")
    return None


def _read(path, what: str, read, error=ConfmonError):
    """read(file) on the file opened as UTF-8 text, a leading byte-order mark
    dropped; read parses the file. An OSError or an undecodable byte met
    while opening or reading it is an error of the given class that names
    the file, and for an undecodable byte its line and byte offset where the
    file can be read again. A ConfmonError read raises comes out as the same
    class with the path in front."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return read(file)
    except (OSError, UnicodeDecodeError) as exc:
        where = _undecodable_at(path) if isinstance(exc, UnicodeDecodeError) else None
        raise error(f"cannot read {what} {path}: {where or exc}") from exc
    except ConfmonError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with LF line breaks; an OSError is a
    ConfmonError that names the path."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfmonError(f"cannot write {path}: {exc}") from exc


def _lines(lines, comment: bool = False):
    """(number, text) for each line of lines whose text is not blank, the
    text stripped of the whitespace around it and the lines numbered from
    1 as they come, so lines of str.splitlines keep its numbers. With
    comment, the text from the first '#' on is dropped first."""
    if comment:
        lines = (line.split("#", 1)[0] for line in lines)
    return filter(itemgetter(1), enumerate(map(str.strip, lines), start=1))


def _fields(lines, error=ConfmonError):
    """(number, key, value) for each (number, text) of lines, such as _lines
    yields, in order: the text split at its first '=', key and value
    stripped. A line without '=' or with a key an earlier line gave is an
    error of the given class that names the line."""
    keys = set()
    for no, line in lines:
        if "=" not in line:
            raise error(f"line {no}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in keys:
            raise error(f"line {no}: key {key!r} given more than once")
        keys.add(key)
        yield no, key, value
