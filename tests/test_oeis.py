"""B-file parsing, rendering, and sequence conformance reports."""

import json
from pathlib import Path

import pytest

from hofg import (
    BFileRecord,
    g,
    gbar,
    parse_bfile,
    render_bfile,
    resolve_offset,
    verify,
)
from hofg.errors import DomainError, GapError, ParseError

DATA = Path(__file__).parent / "data"


def records(*pairs):
    return [BFileRecord(i, v) for i, v in pairs]


# --- parsing ---

def test_parse_basic():
    assert parse_bfile("0 0\n1 1\n2 1\n") == records((0, 0), (1, 1), (2, 1))


def test_parse_skips_comments_and_blanks():
    assert parse_bfile("# comment\n5 3\n") == records((5, 3))
    assert parse_bfile("\n\n# a\n\n7 4\n\n") == records((7, 4))
    assert parse_bfile("") == []


def test_parse_tolerates_crlf_and_padding():
    assert parse_bfile("0 0\r\n1 1   \r\n  2 1\n") == records(
        (0, 0), (1, 1), (2, 1))


def test_parse_rejects_extra_fields():
    with pytest.raises(ParseError) as err:
        parse_bfile("3 2 extra")
    assert err.value.line_no == 1


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_bfile("0 zero\n")
    with pytest.raises(ParseError):
        parse_bfile("-1 0\n")
    with pytest.raises(ParseError):
        parse_bfile("0 -3\n")
    with pytest.raises(ParseError):
        parse_bfile(f"0 {1 << 63}\n")
    # int() takes these, but none is a b-file integer
    for field in ("1_0", "+0", "\u0661", "--1", "-", "0x1", "1.0"):
        with pytest.raises(ParseError) as err:
            parse_bfile(f"0 0\n1 {field}\n")
        assert err.value.line_no == 2
        with pytest.raises(ParseError):
            parse_bfile(f"{field} 0\n")


def test_parse_line_numbers_count_every_line():
    with pytest.raises(ParseError) as err:
        parse_bfile("# head\n0 0\nbroken\n")
    assert err.value.line_no == 3


def test_parse_gap_detection():
    with pytest.raises(GapError) as err:
        parse_bfile("0 0\n2 1\n")
    assert err.value.line_no == 2
    with pytest.raises(GapError):
        parse_bfile("0 0\n0 0\n")


def test_round_trip():
    rs = records((3, 2), (4, 3), (5, 3))
    assert parse_bfile(render_bfile(rs)) == rs
    text = "3 2\n4 3\n5 3\n"
    assert render_bfile(parse_bfile(text)) == text


# --- verification ---

def test_verify_matches():
    assert verify(records((7, 5)), "gbar").ok
    assert verify(records((0, 0), (1, 1)), "g").ok


def test_verify_mismatch_is_data():
    report = verify(records((7, 4)), "gbar")
    assert not report.ok
    assert report.compared == 1
    assert report.mismatches == 1
    assert report.first_mismatch == (7, 4, 5)


def test_verify_empty_is_vacuously_ok():
    report = verify([], "g")
    assert report.ok
    assert report.compared == 0
    assert report.first_mismatch is None


def test_verify_offset():
    shifted = records((1, 0), (2, 1), (3, 1))
    assert verify(shifted, "g", offset=-1).ok
    assert not verify(shifted, "g").ok
    with pytest.raises(DomainError, match=r"^verify: offset -2 sends index 1 below 0$"):
        verify(shifted, "g", offset=-2)


def test_verify_rejects_indices_that_are_not_consecutive():
    # one window reads them all, so the b-file rule of parse_bfile holds here too
    for rs in (records((0, 0), (2, 1)), records((3, 2), (3, 2)), records((5, 3), (4, 3))):
        with pytest.raises(DomainError, match=r"^verify: record indices are not consecutive$"):
            verify(rs, "g")


def test_verify_rejects_unknown_func():
    with pytest.raises(DomainError, match=r"^verify: func must be 'g' or 'gbar', got 'both'$"):
        verify(records((0, 0)), "both")


def test_verify_is_chunk_independent():
    rs = [BFileRecord(n, g(n) + (n % 7 == 0)) for n in range(200)]
    whole = verify(rs, "g")
    parts = [verify(rs[:50], "g"), verify(rs[50:], "g")]
    assert whole.mismatches == sum(p.mismatches for p in parts)
    assert whole.first_mismatch == parts[0].first_mismatch


def test_report_text():
    text = verify(records((6, 4), (7, 4), (8, 5)), "gbar").to_text()
    assert text == (
        "func: gbar\n"
        "offset: 0\n"
        "compared: 3\n"
        "mismatches: 1\n"
        "first mismatch: index 7 file 4 computed 5\n"
        "result: FAIL\n")
    assert verify(records((7, 5)), "gbar").to_text().endswith("result: PASS\n")


def test_report_json():
    # the exact string pins the key order as well as the values
    assert verify(records((7, 4)), "gbar", offset=0).summary_json() == (
        '{"func": "gbar", "offset": 0, "compared": 1, "mismatches": 1, '
        '"first_mismatch": {"index": 7, "file_value": 4, "computed": 5}, '
        '"ok": false}')
    assert verify(records((1, 0), (2, 1)), "g", offset=-1).summary_json() == (
        '{"func": "g", "offset": -1, "compared": 2, "mismatches": 0, '
        '"first_mismatch": null, "ok": true}')
    blob = json.loads(verify([], "g").summary_json())
    assert blob["ok"] is True
    assert blob["first_mismatch"] is None


# --- offset resolution ---

def test_resolve_offset_plain():
    rs = [BFileRecord(n, g(n)) for n in range(20)]
    assert resolve_offset(rs, "g") == 0


def test_resolve_offset_shifted():
    rs = [BFileRecord(n + 2, g(n)) for n in range(20)]
    assert resolve_offset(rs, "g") == -2


def test_resolve_offset_failure_modes():
    with pytest.raises(DomainError, match="^resolve_offset: no records to probe$"):
        resolve_offset([], "g")
    junk = [BFileRecord(n, 99) for n in range(10)]
    with pytest.raises(DomainError, match="^resolve_offset: no candidate offset matches g$"):
        resolve_offset(junk, "g")
    # the func is checked before any probe, so an empty list names it too
    for rs in (records((0, 0)), []):
        with pytest.raises(DomainError,
                           match=r"^resolve_offset: func must be 'g' or 'gbar', got 'both'$"):
            resolve_offset(rs, "both")


# --- vendored fixtures ---

def test_fixture_g_sequence():
    rs = parse_bfile((DATA / "b005206.txt").read_text())
    assert len(rs) >= 10_000
    head = [v for _, v in rs[:21]]
    assert head == [0, 1, 1, 2, 3, 3, 4, 4, 5, 6, 6,
                    7, 8, 8, 9, 9, 10, 11, 11, 12, 12]
    offset = resolve_offset(rs, "g")
    assert offset == 0
    assert verify(rs, "g", offset).ok


def test_fixture_gbar_sequence():
    rs = parse_bfile((DATA / "b123070.txt").read_text())
    assert len(rs) >= 10_000
    head = [v for _, v in rs[:13]]
    assert head == [0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 7, 8]
    by_index = dict(rs)
    assert by_index[14] == 9
    assert by_index[17] == 11
    assert by_index[20] == 13
    assert by_index[28] == 18
    offset = resolve_offset(rs, "gbar")
    assert offset == 0
    assert verify(rs, "gbar", offset).ok
