import pytest
from hypothesis import given
from hypothesis import strategies as st

from thompsonf import words as words_module
from thompsonf.words import (
    WordError,
    format_word,
    inverse_word,
    parse_word,
)

letters = st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=30).map(tuple)


def test_parse_basic():
    assert parse_word("x0 x1^-1") == ((0, 1), (1, -1))
    assert parse_word("") == ()
    assert parse_word("  x12  ") == ((12, 1),)


@pytest.mark.parametrize(
    "text", ["x", "x^-1", "x-1", "x0^2", "x0^1", "x01", "y0", "x0^-1x1", "x 0"]
)
def test_parse_rejects(text):
    with pytest.raises(WordError):
        parse_word(text)


def test_parse_error_position():
    with pytest.raises(WordError, match="position 2"):
        parse_word("x0 zz x1")


def test_format_inverse_of_parse():
    assert format_word(((3, -1), (0, 1))) == "x3^-1 x0"


@given(words)
def test_round_trip(w):
    assert parse_word(format_word(w)) == w


@given(words)
def test_inverse_word_cancels(w):
    assert inverse_word(inverse_word(w)) == w


def test_parse_error_position_after_table_tokens():
    # the earlier tokens are in the fixed table, x100 and the bad token not
    with pytest.raises(WordError, match=r"^bad token 'x0\^2' at position 5$"):
        parse_word("x0 x1^-1 x6 x100 x0^2 x1")
    with pytest.raises(WordError, match=r"^bad token 'y' at position 3$"):
        parse_word("x0 x63^-1 y")


def test_token_table_keeps_its_size():
    size = len(words_module._LETTERS)
    text = " ".join(f"x{k}" if k % 2 else f"x{k}^-1" for k in range(10000))
    assert parse_word(text) == tuple((k, 1 if k % 2 else -1) for k in range(10000))
    assert len(words_module._LETTERS) == size


wide_letters = st.tuples(st.integers(min_value=0, max_value=200), st.sampled_from((1, -1)))


@given(st.lists(wide_letters, max_size=30).map(tuple))
def test_round_trip_past_the_table(w):
    assert parse_word(format_word(w)) == w
