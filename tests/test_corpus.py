from __future__ import annotations

import io
import json
from dataclasses import asdict
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legisnet import corpus
from legisnet import (
    CorpusError,
    GeneratorConfig,
    SENTINEL_EXPIRY,
    RefType,
    Sector,
    ValidationError,
    export,
    generate,
    ingest,
    read_records,
    write_records,
)
from legisnet.graph import reftype_code

from conftest import edge_triples, export_text, node_rows


def edge_set(graph):
    return set(edge_triples(graph))


def doc_set(graph):
    return set(node_rows(graph))


def parse(line: str, line_no: int = 1):
    """The row of one line, numbered ``line_no``."""
    return list(read_records([""] * (line_no - 1) + [line]))[0]


class TestParsing:
    def test_minimal_record(self):
        row = parse('{"id": "X", "sector": 3,'
                    ' "date_of_effect": "1970-03-20"}')
        assert row == ("X", 3, date(1970, 3, 20).toordinal(),
                       SENTINEL_EXPIRY.toordinal(), [], [])

    def test_bad_json_names_line(self):
        with pytest.raises(CorpusError, match="line 3"):
            list(read_records(["{}"] * 0 + [
                '{"id": "A", "sector": 1, "date_of_effect": "1970-01-01"}',
                "",
                "{nope",
            ]))

    def test_bad_sector(self):
        with pytest.raises(CorpusError, match="sector"):
            parse('{"id": "X", "sector": 9,'
                  ' "date_of_effect": "1970-03-20"}', 4)

    def test_bad_date(self):
        with pytest.raises(CorpusError, match="date_of_effect"):
            parse('{"id": "X", "sector": 3,'
                  ' "date_of_effect": "1970-13-01"}', 1)

    def test_unknown_reference_token(self):
        with pytest.raises(CorpusError, match="cited_by"):
            parse('{"id": "X", "sector": 3, "date_of_effect":'
                  ' "1970-03-20", "references":'
                  ' [{"target": "Y", "type": "cited_by"}]}', 2)


GOOD_LINE = '{"id": "A", "sector": 1, "date_of_effect": "1970-01-01"}'
TOKENS = ("['affected_by_case', 'amended_by', 'amendment_to', "
          "'instruments_cited', 'legal_basis', 'other']")
DOC = '"id": "X", "sector": 3, "date_of_effect": "1970-01-01"'
# corpora that parse but fail an ingest check, with the check's message
INGEST_FAULTS = [
    pytest.param([GOOD_LINE, GOOD_LINE.replace("1970", "1971")],
                 "duplicate document id 'A'", id="duplicate-id"),
    pytest.param(['{"id": "A", "sector": 3, "date_of_effect": "1990-01-01",'
                  ' "date_of_expiry": "1980-01-01"}'],
                 "document 'A': date_of_effect 1990-01-01 is after "
                 "date_of_expiry 1980-01-01", id="effect-after-expiry"),
    pytest.param(['{"id": "A", "sector": 3, "date_of_effect": "1990-01-01",'
                  ' "references": [{"target": "A", "type": "other"}]}'],
                 "self-reference on 'A' is excluded from the model",
                 id="self-reference"),
]


@pytest.mark.parametrize("line, message", [
    ("{nope", "invalid JSON: Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1)"),
    ("[1]", "record must be a JSON object"),
    ('"A"', "record must be a JSON object"),
    ('{"sector": 3}', "missing or empty id"),
    ('{"id": ""}', "missing or empty id"),
    ('{"id": 7}', "missing or empty id"),
    ('{"id": "X", "sector": 9}', "sector must be an integer in 1..6"),
    ('{"id": "X", "sector": "3"}', "sector must be an integer in 1..6"),
    ('{"id": "X", "sector": true}', "sector must be an integer in 1..6"),
    ('{"id": "X", "sector": 3.0}', "sector must be an integer in 1..6"),
    ('{"id": "X", "sector": 3}', "date_of_effect must be an ISO date string"),
    ('{"id": "X", "sector": 3, "date_of_effect": 19700101}',
     "date_of_effect must be an ISO date string"),
    ('{"id": "X", "sector": 3, "date_of_effect": "1970-13-01"}',
     "bad date_of_effect '1970-13-01': month must be in 1..12"),
    ('{%s, "date_of_expiry": "1970-02-30"}' % DOC,
     "bad date_of_expiry '1970-02-30': day is out of range for month"),
    ('{%s, "date_of_expiry": 5}' % DOC,
     "date_of_expiry must be an ISO date string"),
    ('{%s, "date_of_expiry": [1]}' % DOC,
     "date_of_expiry must be an ISO date string"),
    ('{%s, "references": {}}' % DOC, "references must be a list"),
    ('{%s, "references": ["Y"]}' % DOC, "reference entries must be objects"),
    ('{%s, "references": [{"type": "other"}]}' % DOC,
     "reference missing target id"),
    ('{%s, "references": [{"target": "", "type": "other"}]}' % DOC,
     "reference missing target id"),
    ('{%s, "references": [{"target": "Y", "type": "cited_by"}]}' % DOC,
     f"unknown reference type 'cited_by'; expected one of {TOKENS}"),
    ('{%s, "references": [{"target": "Y", "type": [1]}]}' % DOC,
     f"unknown reference type [1]; expected one of {TOKENS}"),
    ('{%s, "references": [{"target": "Y", "type": "other"}, 5]}' % DOC,
     "reference entries must be objects"),
    # whitespace that JSON does not allow is no blank line
    *[(char, "invalid JSON: Expecting value: line 1 column 1 (char 0)")
      for char in ("\x0c", "\x1f", "\xa0", "\u3000")],
])
def test_parse_error_names_line(line, message):
    with pytest.raises(CorpusError) as err:
        list(read_records([GOOD_LINE, "", line, GOOD_LINE]))
    assert str(err.value) == f"line 3: {message}"


def test_only_json_whitespace_makes_a_blank_line():
    rows = list(read_records(["", " \t\r\n", GOOD_LINE + "\n", "\n"]))
    assert [row[0] for row in rows] == ["A"]


def outcome(decode, text):
    """What ``decode(text)`` gives: its value's repr (NaN != NaN), or the
    type and message of the error it raises."""
    try:
        return repr(decode(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


# every code point, lone surrogates and non-ASCII characters included
any_text = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=12)
# JSON whitespace, other whitespace, a BOM and characters that continue
# or follow a value
junk = st.text(" \t\n\r\x0c\xa0\ufeff,]}0x\"", max_size=3)


@settings(max_examples=300, deadline=None)
@given(json_values, st.booleans(), junk, junk)
def test_decode_agrees_with_json_loads(value, ascii_only, before, after):
    text = before + json.dumps(value, ensure_ascii=ascii_only) + after
    assert outcome(corpus._decode, text) == outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    "\ufeff{}", "NaN", "[Infinity, -Infinity, NaN]", '{"a": 1} {"b": 2}',
    '"\\ud800"', '{"\\udfff": "\\ud83d"}',
    "[" * 100_000, "[" * 100_000 + "]" * 100_000,
    " {}", "{} \t\r\n", "{}\x0c", "", "   ",
], ids=["bom", "nan", "infinities", "extra-data", "lone-surrogate",
        "lone-surrogates", "deep-open", "deep-closed", "leading-space",
        "trailing-space", "trailing-form-feed", "empty", "spaces"])
def test_decode_agrees_with_json_loads_on_edge_cases(text):
    assert outcome(corpus._decode, text) == outcome(json.loads, text)


@pytest.mark.parametrize("line", [GOOD_LINE, GOOD_LINE + "\n",
                                  GOOD_LINE + " \t\r\n"])
def test_a_value_that_ends_its_line_skips_json_loads(monkeypatch, line):
    def loads(text):
        raise AssertionError(f"json.loads called on {text!r}")
    monkeypatch.setattr(json, "loads", loads)
    assert corpus._decode(line) == {"id": "A", "sector": 1,
                                    "date_of_effect": "1970-01-01"}


@pytest.mark.parametrize("raw", ["1970-W01-1", "19700101", "1970-001",
                                 "1970-1-01", "1970-01-01T00:00",
                                 "\u0661\u0669\u0667\u0660-01-01"])
@pytest.mark.parametrize("fieldname", ["date_of_effect", "date_of_expiry"])
def test_only_yyyy_mm_dd_dates(raw, fieldname):
    record = {"id": "X", "sector": 3, "date_of_effect": "1970-01-01",
              fieldname: raw}
    with pytest.raises(CorpusError) as err:
        list(read_records([json.dumps(record)]))
    assert str(err.value) == f"line 1: bad {fieldname} {raw!r}: expected YYYY-MM-DD"


class TestIngest:
    def test_amendment_chain_reciprocal_materialization(self, amendment_chain_jsonl):
        graph, report = ingest(read_records(io.StringIO(amendment_chain_jsonl)))
        assert graph.node_count == 3
        assert graph.edge_count == 4
        assert report.nodes == 3 and report.edges == 4
        amendments = {k for _, _, k in edge_set(graph)}
        assert amendments == {RefType.AMENDMENT_TO, RefType.AMENDED_BY}
        assert report.per_type_counts["amendment_to"] == 2
        assert report.per_type_counts["amended_by"] == 2

    def test_empty_stream(self):
        graph, report = ingest([])
        assert graph.node_count == 0 and graph.edge_count == 0
        assert asdict(report)["nodes"] == 0
        assert asdict(report)["edges"] == 0

    def test_strict_dangling_reference_names_both_ids(self):
        lines = ['{"id": "A", "sector": 3, "date_of_effect": "1980-01-01",'
                 ' "references": [{"target": "999X9999", "type": "other"}]}']
        with pytest.raises(CorpusError) as err:
            ingest(read_records(lines), mode="strict")
        assert "A" in str(err.value) and "999X9999" in str(err.value)

    def test_lenient_creates_flagged_stub(self):
        lines = ['{"id": "A", "sector": 1, "date_of_effect": "1980-05-05",'
                 ' "references": [{"target": "999X9999", "type": "other"}]}']
        graph, report = ingest(read_records(lines), mode="lenient")
        assert report.stubs == 1
        assert graph.ids[-report.stubs:] == ("999X9999",)
        # effect date copied from the referrer
        assert node_rows(graph)[graph.ids.index("999X9999")] == (
            "999X9999", Sector.LEGISLATION, date(1980, 5, 5),
            date(9999, 12, 31))

    def test_both_amendment_sides_deduplicate(self):
        lines = [
            '{"id": "A", "sector": 3, "date_of_effect": "1970-01-01",'
            ' "references": [{"target": "B", "type": "amended_by"}]}',
            '{"id": "B", "sector": 3, "date_of_effect": "1975-01-01",'
            ' "references": [{"target": "A", "type": "amendment_to"}]}',
        ]
        graph, report = ingest(read_records(lines))
        assert graph.edge_count == 2
        assert report.deduplicated == 2

    def test_unknown_mode(self):
        with pytest.raises(CorpusError):
            ingest([], mode="other")

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("lines, message", INGEST_FAULTS)
    def test_ingest_check_message(self, lines, message, mode):
        with pytest.raises(ValidationError) as err:
            ingest(read_records(lines), mode=mode)
        assert str(err.value) == message


class TestRoundTrip:
    def test_amendment_chain_round_trip(self, amendment_chain_jsonl):
        g1, _ = ingest(read_records(io.StringIO(amendment_chain_jsonl)))
        g2, _ = ingest(export(g1))
        assert doc_set(g1) == doc_set(g2)
        assert edge_set(g1) == edge_set(g2)

    def test_empty_round_trip(self):
        g, _ = ingest([])
        assert export_text(g) == ""

    def test_synthetic_500_sorted_triples(self):
        g = generate(GeneratorConfig(years=(1980, 1989), docs_per_year=50,
                                     densification_exponent=1.2,
                                     sunset_probability=0.3, seed=3))
        g2, _ = ingest(read_records(io.StringIO(export_text(g))))
        assert sorted((u, v, kind.value) for u, v, kind in edge_triples(g)) \
            == sorted((u, v, kind.value) for u, v, kind in edge_triples(g2))
        assert doc_set(g) == doc_set(g2)

    def test_export_is_ingest_stable_bytes(self):
        g = generate(GeneratorConfig(years=(1990, 1992), docs_per_year=20,
                                     seed=9))
        text1 = export_text(g)
        g2, _ = ingest(read_records(io.StringIO(text1)))
        assert export_text(g2) == text1

    def test_sentinel_expiry_omitted_in_json(self):
        g = generate(GeneratorConfig(years=(1990, 1990), docs_per_year=5,
                                     seed=1))
        for line in export_text(g).splitlines():
            assert "9999-12-31" not in line
            json.loads(line)  # stays valid JSON

    def test_random_corpora_isomorphic(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            g = generate(GeneratorConfig(
                years=(2000, 2000 + int(rng.integers(1, 6))),
                docs_per_year=int(rng.integers(5, 30)),
                densification_exponent=float(rng.uniform(1.0, 1.3)),
                sunset_probability=float(rng.uniform(0, 0.5)),
                seed=trial,
            ))
            g2, _ = ingest(export(g))
            assert doc_set(g) == doc_set(g2)
            assert edge_set(g) == edge_set(g2)


class TestWriteRecords:
    def test_write_then_read(self, amendment_chain_jsonl):
        g, _ = ingest(read_records(io.StringIO(amendment_chain_jsonl)))
        buf = io.StringIO()
        write_records(export(g), buf)
        again = list(read_records(io.StringIO(buf.getvalue())))
        assert {row[0] for row in again} == {"370L0220", "383L0351", "389L0491"}

    @settings(max_examples=200, deadline=None)
    @given(any_text, any_text.filter(bool))
    def test_ids_are_quoted_as_json_dumps_quotes_them(self, doc_id, target):
        buf = io.StringIO()
        write_records([(doc_id, 3, date(1970, 1, 1).toordinal(),
                        SENTINEL_EXPIRY.toordinal(), [target],
                        [reftype_code(RefType.OTHER)])], buf)
        assert buf.getvalue() == json.dumps(
            {"id": doc_id, "sector": 3, "date_of_effect": "1970-01-01",
             "references": [{"target": target, "type": "other"}]},
            separators=(",", ":")) + "\n"
