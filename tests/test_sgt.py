"""The .sgt plain-text table format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.core import NotAssociative, OutOfRange
from semivar.sgt import (
    TableSyntaxError,
    inline_table,
    parse_inline,
    parse_table,
    serialize_table,
)
from .conftest import full_corpus


GOOD = "2\n0 0\n1 1\n"


def test_parse_simple_table():
    s = parse_table(GOOD)
    assert s.order == 2
    assert s.table == ((0, 0), (1, 1))


def test_serialize_round_trip(chain3):
    text = serialize_table(chain3)
    assert text == "3\n0 0 0\n0 1 1\n0 1 2\n"
    assert parse_table(text) == chain3


def test_comment_lines_are_skipped():
    text = "# a left-zero band\n2\n# rows follow\n0 0\n1 1\n"
    assert parse_table(text).table == ((0, 0), (1, 1))


def test_blank_lines_are_rejected():
    with pytest.raises(TableSyntaxError):
        parse_table("2\n\n0 0\n1 1\n")


def test_missing_trailing_newline():
    with pytest.raises(TableSyntaxError):
        parse_table("2\n0 0\n1 1")


def test_tab_is_rejected_with_position():
    with pytest.raises(TableSyntaxError) as exc:
        parse_table("2\n0\t0\n1 1\n")
    assert exc.value.line == 2


def test_non_digit_entry():
    with pytest.raises(TableSyntaxError) as exc:
        parse_table("2\n0 x\n1 1\n")
    assert exc.value.line == 2
    assert exc.value.column == 3


@pytest.mark.parametrize("text, line, column", [
    ("2\n0 0\n0 \u0661\n", 3, 3),   # ARABIC-INDIC DIGIT ONE: int() reads 1
    ("1\n\u00b2\n", 2, 1),           # SUPERSCRIPT TWO: int() raises
    ("\u0662\n0 0\n1 1\n", 1, 1),    # ARABIC-INDIC DIGIT TWO as the order
])
def test_only_ascii_digits_are_ids(text, line, column):
    with pytest.raises(TableSyntaxError) as exc:
        parse_table(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_bad_order_line():
    with pytest.raises(TableSyntaxError):
        parse_table("two\n0 0\n1 1\n")
    with pytest.raises(TableSyntaxError):
        parse_table("-2\n0 0\n1 1\n")


def test_wrong_row_count():
    with pytest.raises(TableSyntaxError):
        parse_table("2\n0 0\n")
    with pytest.raises(TableSyntaxError):
        parse_table("2\n0 0\n1 1\n0 1\n")


def test_wrong_row_width():
    with pytest.raises(TableSyntaxError):
        parse_table("2\n0 0 0\n1 1\n")


def test_empty_input():
    with pytest.raises(TableSyntaxError):
        parse_table("")
    with pytest.raises(TableSyntaxError):
        parse_table("# only a comment\n")


def test_semantic_errors_pass_through():
    with pytest.raises(OutOfRange):
        parse_table("2\n0 2\n1 1\n")
    with pytest.raises(NotAssociative):
        parse_table("2\n1 0\n0 0\n")


def test_inline_round_trip(left_zero):
    key = inline_table(left_zero)
    assert key == "2;0 0;1 1"
    assert parse_inline(key) == left_zero


@pytest.mark.parametrize("key, column", [
    ("2;0 0;1 1;# x", 10),  # a comment row
    ("02;0 0;1 1", 1),      # a leading zero in the order
    ("2;0 0;1 01", 9),      # a leading zero in an entry
])
def test_parse_inline_refuses_a_key_inline_table_does_not_write(key, column):
    # each parses to 2;0 0;1 1, and would let one table pass under two keys
    with pytest.raises(TableSyntaxError, match="the key of this table is '2;0 0;1 1'") as exc:
        parse_inline(key)
    assert (exc.value.line, exc.value.column) == (1, column)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_round_trip_any_corpus_table(s):
    assert parse_table(serialize_table(s)) == s
    assert parse_inline(inline_table(s)) == s


def test_parse_inline_is_parse_table_on_every_key_of_orders_1_to_4():
    for s in full_corpus(1, 2, 3, 4):
        key = inline_table(s)
        assert parse_inline(key) == parse_table(key.replace(";", "\n") + "\n") == s


@pytest.mark.parametrize("key, line, column, message", [
    ("2;0 0;1 +1", 3, 3, "expected a decimal element id"),   # a sign
    ("+2;0 0;1 1", 1, 1, "order must be a decimal integer"),
    ("2;0 0; 1 1", 3, 1, "expected a decimal element id"),   # a leading space
    ("2;0 0;1 1_0", 3, 3, "expected a decimal element id"),  # int() reads 10
    ("2;0 0;1 ١", 3, 3, "expected a decimal element id"),  # ARABIC-INDIC DIGIT ONE
    ("2;0 0;1 １", 3, 3, "expected a decimal element id"),  # FULLWIDTH DIGIT ONE
    ("2;0  0;1 1", 2, 3, "expected a decimal element id"),   # a doubled space
    ("2;0 0;1 1 ", 3, 5, "expected a decimal element id"),   # a trailing space
    ("2;0 0;1 1;", 4, 1, "unexpected content after 2 rows"),  # a trailing ;
    ("2;0 0;;1 1", 3, 1, "expected a decimal element id"),   # an empty row
    ("2;0 0", 3, 1, "expected 2 rows, got 1"),
    ("2;0 0;1", 3, 3, "expected 2 entries, got 1"),
    ("2;0 0;1 1 1", 3, 7, "expected 2 entries, got 3"),
    ("3;0 0;1 1", 2, 5, "expected 3 entries, got 2"),
    ("2;0 0;1\t1", 3, 2, "tab character not allowed"),
    ("0", 1, 1, "order must be positive, got 0"),
])
def test_parse_inline_names_the_first_fault_of_another_spelling(key, line, column, message):
    # the line, column and message parse_table and the key check give
    with pytest.raises(TableSyntaxError) as exc:
        parse_inline(key)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_an_order_of_more_digits_than_int_converts_is_a_syntax_error():
    # int() refuses more than 4,300 digits, and no such order has its rows
    message = "^line 1, column 1: an order of 5000 digits exceeds 2 lines$"
    with pytest.raises(TableSyntaxError, match=message):
        parse_table("9" * 5000 + "\n0\n")
    with pytest.raises(TableSyntaxError, match=message):
        parse_inline("9" * 5000 + ";0")
    # leading zeros do not count: 5000 of them spell the order 0
    with pytest.raises(TableSyntaxError, match="^line 2, column 1: unexpected content after 0 rows$"):
        parse_table("0" * 5000 + "\n0\n")
