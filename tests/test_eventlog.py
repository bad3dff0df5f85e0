from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmon.errors import LogError
from confmon.eventlog import (LABELS, EventLog, Trace, _check_token,
                              parse_log, split_log, stats, write_log,
                              write_log_csv)

token = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


def make_log(*rows):
    return EventLog([Trace(f"c{i}", events, label)
                     for i, (events, label) in enumerate(rows, start=1)])


def test_parse_trace_per_line():
    log = parse_log("c1: a b c\nc2: a\n\nc3: | normal\n")
    assert len(log) == 3
    assert log[0].events == ("a", "b", "c")
    assert log[1].label is None
    assert log[2].events == ()
    assert log[2].label == "normal"


def test_parse_csv():
    text = "case,activity,label\nc1,a,normal\nc1,b,\nc2,a,anomalous\n"
    log = parse_log(text)
    assert len(log) == 2
    assert log[0].events == ("a", "b")
    assert log[0].label == "normal"
    assert log[1].label == "anomalous"


def test_round_trip_line_format():
    log = make_log((("a", "b"), "normal"), ((), None), (("c",), "anomalous"))
    assert parse_log(write_log(log)) == log


def test_round_trip_csv_format():
    log = make_log((("a", "b"), "normal"), (("c",), None))
    assert parse_log(write_log_csv(log)) == log


def test_csv_rejects_empty_traces():
    log = make_log(((), None))
    with pytest.raises(LogError, match="no events"):
        write_log_csv(log)


def test_csv_rejects_activities_holding_commas():
    """The trace-per-line format allows 'a,b' as an activity; a CSV row
    would split it into two cells."""
    log = EventLog([Trace("c0", ("x",)), Trace("c1", ("a,b", "c"), "normal")])
    assert parse_log(write_log(log)) == log
    with pytest.raises(LogError, match=r"case 'c1': activity 'a,b' holds ','"):
        write_log_csv(log)


def test_parse_line_errors():
    with pytest.raises(LogError, match="line 1"):
        parse_log("no separator here\n")
    with pytest.raises(LogError, match="unknown label"):
        parse_log("c1: a b | weird\n")


def test_nul_and_u_feff_are_not_token_characters():
    """A NUL or a U+FEFF in an activity, a case id or a label is a LogError
    that names the line, in both formats; neither is whitespace, so
    str.split leaves it in a token. A leading U+FEFF is a case id's
    character too: parse_log reads text, and the CLI's reader drops a
    file's byte-order mark before it."""
    cases = [("c1: t1 t\x002\n", "line 1: activity may not contain NUL or U+FEFF: 't\\x002'"),
             ("c1: t1\nc2: t1 t2\ufeff\n",
              "line 2: activity may not contain NUL or U+FEFF: 't2\\ufeff'"),
             ("c1: t1\nc1\x00: t1\n", "line 2: case id may not contain NUL or U+FEFF"),
             ("\ufeffc1: t1\n", "line 1: case id may not contain NUL or U+FEFF"),
             ("c1: t1 | normal\ufeff\n", "line 1: unknown label"),
             ("case,activity\nc1,t\x00\n",
              "case 'c1': activity may not contain NUL or U+FEFF: 't\\x00'")]
    for text, message in cases:
        with pytest.raises(LogError) as exc:
            parse_log(text)
        assert str(exc.value).startswith(message), (text, str(exc.value))
    # the body memo holds only checked bodies: a repeated bad body fails again
    with pytest.raises(LogError, match="^line 1: "):
        parse_log("c1: t\x00\nc2: t\x00\n")


def test_parse_csv_errors():
    with pytest.raises(LogError, match="header"):
        parse_log("case,activity,oops\nc1,a,x\n")
    with pytest.raises(LogError, match="columns"):
        parse_log("case,activity\nc1,a,b\n")
    with pytest.raises(LogError, match="conflicting labels"):
        parse_log("case,activity,label\nc1,a,normal\nc1,b,anomalous\n")
    with pytest.raises(LogError, match="^case 'c2': activity must be a non-empty token "
                                       "without whitespace: 'a b'$"):
        parse_log("case,activity\nc1,a\nc2,a b\n")


ODD_TOKENS = ["a", "b", "é", "a:b", "日本", "x-y", "a,b"]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(st.sampled_from(ODD_TOKENS), max_size=4),
                               st.sampled_from([None, "normal", "anomalous"]),
                               st.sampled_from(["", " ", "  ", "\t"]),
                               st.sampled_from([" ", "  ", "\t "]),
                               st.booleans()),
                     max_size=10))
def test_parsed_traces_equal_validated_ones_property(rows):
    """The parser builds its traces without Trace's checks; field by field
    they equal the traces that the validating constructor builds."""
    lines, want = [], []
    for i, (events, label, pad, sep, blank_before) in enumerate(rows):
        if blank_before:
            lines.append(pad)
        line = f"{pad}c{i}{pad}:{pad}{sep.join(events)}{pad}"
        if label is not None:
            line += f"|{sep}{label}{pad}"
        lines.append(line)
        want.append(Trace(f"c{i}", tuple(events), label))
    log = parse_log("\n".join(lines))
    assert log == EventLog(want)
    for got, expected in zip(log, want, strict=True):
        assert type(got) is Trace
        assert (got.case_id, got.events, got.label) == \
            (expected.case_id, expected.events, expected.label)
        assert type(got.events) is tuple


def test_parsed_traces_share_events_activities_and_labels():
    # names of two or more characters: CPython caches every one-character str
    log = parse_log("c1: go ok go | normal\nc2: ok end\nc3: go ok go | anomalous\n"
                    "c4: go ok go | normal\nc5:  ok\tend \nc6: go\n")
    assert log[0].events is log[2].events is log[3].events
    activities = [ev for tr in log for ev in tr.events]
    assert len({id(ev) for ev in activities}) == len(set(activities)) == 3
    assert all(any(tr.label is label for label in LABELS)
               for tr in log if tr.label is not None)
    csv = parse_log("case,activity,label\nc1,go,normal\nc1,ok,\nc2,go,anomalous\nc2,ok,\n")
    activities = [ev for tr in csv for ev in tr.events]
    assert len({id(ev) for ev in activities}) == 2
    assert all(any(tr.label is label for label in LABELS) for tr in csv)


def test_parsed_traces_are_no_larger_than_validated_ones():
    # CPython shares one key table between the instance dicts of a class only
    # while each instance sets its fields one by one, as __init__ does.
    # getsizeof counts a share of that table, so both dicts are taken first.
    parsed = parse_log("c1: a b | normal\n")[0]
    built = Trace("c1", ("a", "b"), "normal")
    parsed_dict, built_dict = vars(parsed), vars(built)
    assert sys.getsizeof(parsed_dict) <= sys.getsizeof(built_dict)


def test_trace_fields_are_the_ones_the_parser_sets():
    # _parse_lines sets these fields by hand, bypassing __init__: a new field
    # must be set there too.
    assert [f.name for f in dataclasses.fields(Trace)] == ["case_id", "events", "label"]


@pytest.mark.parametrize("line, case_id", [("a|b: t1", "a|b"), (": t1", ""),
                                           ("a b: t1", "a b"), ("a,b: t1", "a,b")])
def test_parser_names_a_bad_case_id_as_trace_does(line, case_id):
    with pytest.raises(LogError) as want:
        Trace(case_id, ("t1",))
    with pytest.raises(LogError) as got:
        parse_log(f"c1: t1\n{line}\n")
    assert str(got.value) == f"line 2: {want.value}"


def test_trace_validation():
    with pytest.raises(LogError, match="case id"):
        Trace("has space", ("a",))
    with pytest.raises(LogError, match="':'"):
        Trace("a:b", ("a",))
    with pytest.raises(LogError, match="may not contain ',': 'a,b'"):
        Trace("a,b", ("a",))
    with pytest.raises(LogError, match="activity"):
        Trace("c1", ("a b",))
    with pytest.raises(LogError, match="label"):
        Trace("c1", ("a",), "maybe")


def test_trace_rejects_values_of_the_wrong_type():
    with pytest.raises(LogError, match="case id must be a str: 7$"):
        Trace(7, ("a",))
    with pytest.raises(LogError, match="activity must be a str: 5$"):
        Trace("c1", ("a", 5))
    with pytest.raises(LogError, match="not the str 'ab'$"):
        Trace("c1", "ab")
    with pytest.raises(LogError, match="sequence of activities: None$"):
        Trace("c1", None)


BAD_TOKENS = ["", " ", "a b", "a\tb", "a\x1cb", "a\xa0b", "a\u2028b", "a|b", " a", "a ",
              "a\x00b", "\x00", "a\ufeffb", "\ufeffa"]


@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_trace_names_the_bad_event_as_check_token_does(bad):
    """Events are checked in one pass over their joined text; a bad event,
    alone or among valid ones, still fails with _check_token's message."""
    with pytest.raises(LogError) as want:
        _check_token(bad, "activity")
    for events in [(bad,), ("x", bad), (bad, "y"), ("x", bad, "y"), ("x", bad, bad, "|")]:
        with pytest.raises(LogError) as got:
            Trace("c1", events)
        assert str(got.value) == str(want.value)


def test_trace_accepts_tokens_that_only_look_odd():
    events = ("é", "a:b", "a\u200bb", "x-y", "日本", "a\x01b", "a,b")
    assert Trace("c1", events).events == events


@settings(max_examples=200, deadline=None)
@given(events=st.lists(st.text(alphabet="ab |\t\x1c\xa0\u2028\u200b\x00\ufeff", max_size=3),
                       max_size=4))
def test_trace_accepts_exactly_what_check_token_accepts(events):
    first_bad = None
    for ev in events:
        try:
            _check_token(ev, "activity")
        except LogError as exc:
            first_bad = str(exc)
            break
    if first_bad is None:
        assert Trace("c1", events).events == tuple(events)
    else:
        with pytest.raises(LogError) as got:
            Trace("c1", events)
        assert str(got.value) == first_bad


def test_duplicate_case_ids_rejected():
    with pytest.raises(LogError, match="duplicate case id"):
        EventLog([Trace("c1", ("a",)), Trace("c1", ("b",))])


def test_stats():
    log = make_log((("a", "b"), None), (("a", "b"), None), (("a",), None))
    s = stats(log)
    assert s.n_traces == 3
    assert s.n_variants == 2
    assert s.mean_len == pytest.approx(5 / 3)
    assert s.std_len == pytest.approx(0.4714045208)
    empty = stats(EventLog([]))
    assert (empty.n_traces, empty.n_variants, empty.mean_len, empty.std_len) == (0, 0, 0.0, 0.0)


def test_split_log_sizes_and_partition():
    log = EventLog([Trace(f"c{i}", ("a",)) for i in range(50)])
    train, val, test = split_log(log, (0.6, 0.2, 0.2), seed=0)
    assert (len(train), len(val), len(test)) == (30, 10, 10)
    ids = [tr.case_id for part in (train, val, test) for tr in part]
    assert sorted(ids) == sorted(tr.case_id for tr in log)
    assert len(set(ids)) == 50


def test_split_log_deterministic_and_seed_sensitive():
    log = EventLog([Trace(f"c{i}", ("a",)) for i in range(20)])
    a = split_log(log, seed=1)
    b = split_log(log, seed=1)
    c = split_log(log, seed=2)
    assert [p.traces for p in a] == [p.traces for p in b]
    assert [p.traces for p in a] != [p.traces for p in c]


def test_split_log_keeps_original_order_within_parts():
    log = EventLog([Trace(f"c{i:02d}", ("a",)) for i in range(30)])
    for part in split_log(log, seed=3):
        ids = [tr.case_id for tr in part]
        assert ids == sorted(ids)


def test_split_log_errors():
    log = EventLog([Trace("c1", ("a",)), Trace("c2", ("a",))])
    with pytest.raises(LogError, match="empty part"):
        split_log(log)
    with pytest.raises(LogError, match="triple"):
        split_log(log, (0.5, 0.5))
    with pytest.raises(LogError, match="sum to 1"):
        split_log(log, (0.5, 0.3, 0.3))
    with pytest.raises(LogError, match="positive"):
        split_log(log, (1.0, 0.0, 0.0))
    # a nan used to escape as a bare ValueError, or as a misleading empty part
    nan, inf = float("nan"), float("inf")
    for ratios in ((0.5, nan, 0.5), (nan, 0.5, 0.5), (0.5, 0.5, inf), (inf, 0.5, 0.5)):
        with pytest.raises(LogError, match="finite"):
            split_log(log, ratios)


def test_split_log_floor_rounding_is_float_safe():
    # 0.2 * 45 is 8.999... in floats; the val/test parts must still get 9
    log = EventLog([Trace(f"c{i}", ("a",)) for i in range(45)])
    train, val, test = split_log(log)
    assert (len(train), len(val), len(test)) == (27, 9, 9)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(token, max_size=5),
                               st.sampled_from([None, "normal", "anomalous"])),
                     max_size=8))
def test_line_format_round_trip_property(rows):
    log = make_log(*rows)
    assert parse_log(write_log(log)) == log


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=15, max_value=120), seed=st.integers(0, 999))
def test_split_log_partition_property(n, seed):
    log = EventLog([Trace(f"c{i}", ("a",)) for i in range(n)])
    parts = split_log(log, seed=seed)
    ids = [tr.case_id for part in parts for tr in part]
    assert sorted(ids) == sorted(tr.case_id for tr in log)
    assert len(parts[1]) == int(0.2 * n + 1e-9)
    assert len(parts[2]) == int(0.2 * n + 1e-9)


def _whitespace_verdict_by_chars(value: str) -> bool:
    """The token test written out character by character."""
    return not value or value != value.strip() or any(c.isspace() for c in value)


def test_token_whitespace_test_agrees_with_a_per_character_scan():
    """value.split() != [value] rejects exactly the empty string and every
    string holding a whitespace character. Checked for every code point c
    alone, and for every code point of the basic multilingual plane (where
    all of Unicode's whitespace lies) as a+c, c+b and a+c+b."""
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    bmp = chars[:0x10000]
    values = [""] + chars + [v for c in bmp for v in ("a" + c, c + "b", "a" + c + "b")]
    fast = [v.split() != [v] for v in values]
    assert fast == [_whitespace_verdict_by_chars(v) for v in values]
    for value in (v for v, rejected in zip(values, fast) if rejected):
        with pytest.raises(LogError, match="non-empty token without whitespace"):
            _check_token(value, "activity")
