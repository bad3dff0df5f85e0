"""Shared exception hierarchy.

Every domain failure raises a subclass of ConfmonError so the command line
front end can map it to a nonzero exit code without catching bare Exception.
_undecodable_at words where a file's bytes stop being UTF-8, for the
messages of every reader of text files.
"""

from __future__ import annotations

import os


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


def _undecodable_at(path: str) -> str | None:
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
