from __future__ import annotations

import random
from collections import Counter

import pytest

from confmon.errors import InjectError
from confmon.eventlog import EventLog, Trace
from confmon.inject import (ANOMALY_TYPES, DEFAULT_UNKNOWN_POOL,
                            InjectionSpec, build_eval_sets, inject_log,
                            inject_trace, _trace_rng, _zt_poisson)
from confmon.petri import playout


@pytest.fixture(scope="module")
def normal(fn1):
    return playout(fn1, 40, seed=2)


def without_pool_events(trace, pool):
    return tuple(ev for ev in trace.events if ev not in pool)


def test_spec_validation():
    with pytest.raises(InjectError, match="anomaly type"):
        InjectionSpec("nope")
    with pytest.raises(InjectError, match="lambda"):
        InjectionSpec("ma", lam=0.0)
    with pytest.raises(InjectError, match="unknown pool"):
        InjectionSpec("ua", unknown_pool=())
    # a pool is irrelevant for pure deletions
    InjectionSpec("ma", unknown_pool=())


@pytest.mark.parametrize("atype", ["ua", "all"])
@pytest.mark.parametrize("pool, message", [
    (("z1", "x|y"), r"unknown pool: activity may not contain '\|': 'x\|y'"),
    (("a", "", "b"), "unknown pool: activity must be a non-empty token without whitespace: ''"),
    (("z 1",), "unknown pool: activity must be a non-empty token without whitespace: 'z 1'"),
    ((7,), "unknown pool: activity must be a str: 7"),
], ids=["bar", "empty", "space", "not-str"])
def test_spec_checks_each_pool_name_as_an_activity(atype, pool, message):
    """A pool name is inserted into traces as an activity, so it is held
    to the log's activity rule when the spec is built."""
    with pytest.raises(InjectError, match=message):
        InjectionSpec(atype, unknown_pool=pool)


@pytest.mark.parametrize("lam", [800.0, 5000.0, float("inf")])
def test_lambda_whose_exp_underflows_is_rejected(lam):
    """The sampler stops once its running product falls to exp(-lambda).
    Above about 708.4 that limit is below the smallest normal float, and
    lambdas of 800, 5000 and inf all drew a mean K of 745."""
    with pytest.raises(InjectError, match=f"at most about 708.4.*got {lam}"):
        InjectionSpec("ma", lam=lam)


def test_lambda_700_draws_its_mean():
    spec = InjectionSpec("ma", lam=700.0)
    rng = random.Random(0)
    ks = [_zt_poisson(rng, spec.lam) for _ in range(200)]
    assert abs(sum(ks) / len(ks) - 700.0) < 10.0  # the mean's SE is about 1.9


def test_inject_log_is_deterministic(normal):
    spec = InjectionSpec("woa", seed=5)
    assert inject_log(normal, spec) == inject_log(normal, spec)
    assert inject_log(normal, spec) != inject_log(normal, InjectionSpec("woa", seed=6))


def test_injection_is_per_trace(normal):
    """Each trace owns a sub-seed, so injecting a prefix of the log yields a
    prefix of the injected log."""
    spec = InjectionSpec("ma", seed=3)
    full = inject_log(normal, spec)
    head = inject_log(EventLog(normal.traces[:10]), spec)
    assert full.traces[:10] == head.traces


def test_ma_deletes_k_events(normal):
    spec = InjectionSpec("ma", seed=1)
    for idx, tr in enumerate(normal):
        mutated, k = inject_trace(tr, spec, _trace_rng(1, "ma", idx))
        assert k >= 1
        assert len(mutated.events) == len(tr.events) - k
        # deletions only: the result is a sub-multiset of the source
        assert not Counter(mutated.events) - Counter(tr.events)
        assert mutated.label == "anomalous"


def test_ma_caps_deletions_at_trace_length():
    spec = InjectionSpec("ma", lam=50.0)
    tr = Trace("c1", ("a", "b"))
    mutated, k = inject_trace(tr, spec, _trace_rng(0, "ma", 0))
    assert k <= 2
    assert len(mutated.events) == 2 - k


def test_ma_rejects_empty_trace():
    with pytest.raises(InjectError, match="empty trace"):
        inject_trace(Trace("c1", ()), InjectionSpec("ma"), _trace_rng(0, "ma", 0))


def test_woa_preserves_multiset_and_changes_order(normal):
    spec = InjectionSpec("woa", seed=2)
    for idx, tr in enumerate(normal):
        mutated, k = inject_trace(tr, spec, _trace_rng(2, "woa", idx))
        assert k >= 1
        assert Counter(mutated.events) == Counter(tr.events)
        assert mutated.events != tr.events


def test_woa_rejects_unswappable_traces():
    with pytest.raises(InjectError, match="length 1"):
        inject_trace(Trace("c1", ("a",)), InjectionSpec("woa"), _trace_rng(0, "woa", 0))
    # two identical events: every swap is invisible
    with pytest.raises(InjectError, match="cancelling"):
        inject_trace(Trace("c1", ("a", "a")), InjectionSpec("woa"), _trace_rng(0, "woa", 0))


def test_ua_inserts_k_pool_events(normal):
    spec = InjectionSpec("ua", seed=4)
    for idx, tr in enumerate(normal):
        mutated, k = inject_trace(tr, spec, _trace_rng(4, "ua", idx))
        assert k >= 1
        assert len(mutated.events) == len(tr.events) + k
        inserted = Counter(mutated.events) - Counter(tr.events)
        assert set(inserted) <= set(DEFAULT_UNKNOWN_POOL)
        assert sum(inserted.values()) == k
        # dropping the insertions restores the source trace exactly
        assert without_pool_events(mutated, DEFAULT_UNKNOWN_POOL) == tr.events


def test_ua_insertion_into_empty_trace():
    mutated, k = inject_trace(Trace("c1", ()), InjectionSpec("ua"), _trace_rng(0, "ua", 0))
    assert len(mutated.events) == k >= 1


def test_inject_trace_rejects_all():
    with pytest.raises(InjectError, match="one concrete type"):
        inject_trace(Trace("c1", ("a", "b")), InjectionSpec("all"), _trace_rng(0, "all", 0))


def test_inject_log_prefixes_case_ids(normal):
    out = inject_log(normal, InjectionSpec("ua", seed=0))
    assert [tr.case_id for tr in out] == [f"ua_{tr.case_id}" for tr in normal]


def test_build_eval_sets_layout(normal):
    sets = build_eval_sets(normal, seed=0)
    assert set(sets) == {"ma", "woa", "ua", "all"}
    for atype in ANOMALY_TYPES:
        assert len(sets[atype]) == len(normal)
        assert all(tr.case_id.startswith(f"{atype}_") for tr in sets[atype])
        assert all(tr.label == "anomalous" for tr in sets[atype])
    assert len(sets["all"]) == 3 * len(normal)
    assert sets["all"].traces == sets["ma"].traces + sets["woa"].traces + sets["ua"].traces


def test_inject_log_all_matches_eval_union(normal):
    spec = InjectionSpec("all", seed=9)
    assert inject_log(normal, spec) == build_eval_sets(normal, seed=9)["all"]


def test_zero_truncation_and_mean_applied_modifications(fn1):
    """Applied modification counts are always >= 1 and their mean over a large
    log sits near the zero-truncated Poisson mean 3/(1 - e^-3), about 3.157.
    Deletions are capped at the trace length, which drags the ma mean down a
    little; the band allows for that."""
    log = playout(fn1, 1000, seed=5)
    for atype in ANOMALY_TYPES:
        spec = InjectionSpec(atype, lam=3.0)
        ks = []
        for idx, tr in enumerate(log):
            _, k = inject_trace(tr, spec, _trace_rng(0, atype, idx))
            ks.append(k)
        assert min(ks) >= 1
        mean = sum(ks) / len(ks)
        assert 2.95 <= mean <= 3.35, (atype, mean)
