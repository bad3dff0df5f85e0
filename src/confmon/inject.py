"""Synthetic control-flow anomaly injection.

Three anomaly types, each modifying a trace K times where K is drawn from a
zero-truncated Poisson (redraw until K >= 1):

  ma   missing activities: delete K positions chosen uniformly without
       replacement (capped at the trace length)
  woa  wrongly-ordered activities: K independent swaps of uniformly chosen
       unordered position pairs; if the swaps cancel out, the whole set is
       redrawn so the output genuinely differs from the input
  ua   unknown activities: insert K activities drawn uniformly from a pool of
       names the model does not know, at uniform positions

"all" unions one pass of each type. Injection is per trace with a sub-seed
derived from (seed, type, trace index), so logs inject deterministically and
traces can be processed in any order.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .errors import InjectError, LogError
from .eventlog import EventLog, Trace

ANOMALY_TYPES = ("ma", "woa", "ua")
DEFAULT_UNKNOWN_POOL = tuple(f"unk_{i}" for i in range(1, 11))
DEFAULT_LAMBDA = 3.0

_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class InjectionSpec:
    """What to inject: anomaly type, Poisson rate, unknown-name pool, seed.

    The pool must not intersect the activity names of the model under study;
    that is the caller's contract since injection never sees the model.
    """

    anomaly_type: str
    lam: float = DEFAULT_LAMBDA
    unknown_pool: tuple[str, ...] = DEFAULT_UNKNOWN_POOL
    seed: int = 0

    def __post_init__(self) -> None:
        if self.anomaly_type not in ANOMALY_TYPES + ("all",):
            raise InjectError(f"anomaly type must be one of {ANOMALY_TYPES + ('all',)}, "
                              f"got {self.anomaly_type!r}")
        if not self.lam > 0:
            raise InjectError(f"lambda must be positive, got {self.lam}")
        if math.exp(-self.lam) < sys.float_info.min:
            # _poisson stops once its running product falls to exp(-lambda);
            # below the smallest normal float that limit is rounded or 0
            raise InjectError(f"lambda must be at most about 708.4, so that exp(-lambda) "
                              f"does not underflow, got {self.lam}")
        if self.anomaly_type in ("ua", "all"):
            if not self.unknown_pool:
                raise InjectError("ua injection needs a non-empty unknown pool")
            # pool names are inserted as events, so they pass a trace's check
            try:
                Trace("pool", self.unknown_pool)
            except LogError as exc:
                raise InjectError(f"unknown pool: {exc}") from None


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's product method; fine for the small rates used here.
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _zt_poisson(rng: random.Random, lam: float) -> int:
    while True:
        k = _poisson(rng, lam)
        if k >= 1:
            return k


def _trace_rng(seed: int, anomaly_type: str, idx: int) -> random.Random:
    return random.Random(f"{seed}:{anomaly_type}:{idx}")


def inject_trace(trace: Trace, spec: InjectionSpec, rng: random.Random,
                 case_id: str | None = None):
    """Apply one anomaly to a trace.

    Returns (modified trace labeled anomalous, applied modification count K).
    For ma the count is capped at the trace length; for woa a trace too short
    or too uniform to change raises after 100 redraw attempts.
    """
    atype = spec.anomaly_type
    if atype == "all":
        raise InjectError("inject_trace applies one concrete type; use build_eval_sets for 'all'")
    events = list(trace.events)
    new_id = case_id if case_id is not None else trace.case_id
    k = _zt_poisson(rng, spec.lam)

    if atype == "ma":
        if not events:
            raise InjectError(f"cannot delete from empty trace {trace.case_id!r}")
        applied = min(k, len(events))
        for pos in sorted(rng.sample(range(len(events)), applied), reverse=True):
            del events[pos]
        return Trace(new_id, tuple(events), "anomalous"), applied

    if atype == "woa":
        if len(events) < 2:
            raise InjectError(
                f"cannot swap within trace {trace.case_id!r} of length {len(events)} "
                f"(gave up after {_MAX_ATTEMPTS} attempts)")
        for _ in range(_MAX_ATTEMPTS):
            swapped = list(events)
            for _ in range(k):
                i, j = rng.sample(range(len(swapped)), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
            if swapped != events:
                return Trace(new_id, tuple(swapped), "anomalous"), k
        raise InjectError(
            f"swaps on trace {trace.case_id!r} kept cancelling out "
            f"(gave up after {_MAX_ATTEMPTS} attempts)")

    # ua
    for _ in range(k):
        act = spec.unknown_pool[rng.randrange(len(spec.unknown_pool))]
        events.insert(rng.randrange(len(events) + 1), act)
    return Trace(new_id, tuple(events), "anomalous"), k


def inject_log(normal: EventLog, spec: InjectionSpec) -> EventLog:
    """Inject one anomaly type into every trace of a log.

    Case ids gain the anomaly type as a prefix so injected logs can be
    concatenated with each other and with the source log.
    """
    if spec.anomaly_type == "all":
        sets = build_eval_sets(normal, spec.lam, spec.unknown_pool, spec.seed)
        return sets["all"]
    out = []
    for idx, tr in enumerate(normal):
        rng = _trace_rng(spec.seed, spec.anomaly_type, idx)
        mutated, _ = inject_trace(tr, spec, rng, case_id=f"{spec.anomaly_type}_{tr.case_id}")
        out.append(mutated)
    return EventLog(out)


def build_eval_sets(normal: EventLog, lam: float = DEFAULT_LAMBDA,
                    unknown_pool=DEFAULT_UNKNOWN_POOL, seed: int = 0) -> dict:
    """Anomalous evaluation sets: one log per type plus their union.

    Three independent passes over the source log (every trace of "ma"/"woa"/
    "ua" has exactly one anomaly of that type); "all" concatenates the three,
    so it is three times the source size with distinct case ids throughout.
    """
    sets = {}
    for atype in ANOMALY_TYPES:
        spec = InjectionSpec(atype, lam, tuple(unknown_pool), seed)
        sets[atype] = inject_log(normal, spec)
    sets["all"] = EventLog([tr for atype in ANOMALY_TYPES for tr in sets[atype]])
    return sets
