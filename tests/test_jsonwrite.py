"""`borelcurve.jsonwrite` against its oracle `json.dumps(..., sort_keys=True)`."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve.jsonwrite import dumps

# every class of character json escapes differently: quote, backslash, the
# short escapes, other controls, DEL, non-ASCII, astral and lone surrogates
CHARS = st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80\xe9 ￿\U0001F600\U0010FFFF'
                        "\ud800􏰀\udfff a~") | st.characters(blacklist_categories=())
TEXT = st.text(CHARS, max_size=12)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2**200, max_value=2**200) | TEXT)
VALUES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(TEXT, kids, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True)
    assert dumps(obj, 2) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("text", ["", "plain text", '"', "\\", "\x7f", "\U0001F600", "\ud83d",
                                  "\x00\x1f \n\t\b\f\r"])
def test_writer_quotes_like_json(text):
    assert dumps({text: [text]}, 2) == json.dumps({text: [text]}, indent=2, sort_keys=True)


def test_writer_writes_tuples_as_lists_and_refuses_other_types():
    assert dumps({"a": (1, (2,), ())}) == '{"a": [1, [2], []]}'
    for value in (0.5, {1, 2}, object()):
        with pytest.raises(TypeError):
            dumps({"a": [value]})
