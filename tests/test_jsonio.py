"""Canonical JSON: pre-rendered text spliced into a top-level dict only."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett.jsonio import Rendered, canonical_dumps, canonical_line

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(st.text(max_size=4), json_value, min_size=1, max_size=5), st.data())
@settings(max_examples=200, deadline=None)
def test_spliced_values_read_as_their_canonical_text(obj, data):
    expected = canonical_line(obj)
    rendered = {}
    for key, value in obj.items():
        if data.draw(st.booleans()):
            text = canonical_dumps(value)
            cut = data.draw(st.integers(0, len(text)))
            value = Rendered(iter([text[:cut], text[cut:]]))
        rendered[key] = value
    assert canonical_line(rendered) == expected


def test_keys_stay_sorted_around_spliced_values():
    obj = {"walls": Rendered(["[[1,2]]"]), "ok": True, "violations": ["xΔ"]}
    assert canonical_line(obj) == '{"ok":true,"violations":["x\\u0394"],"walls":[[1,2]]}\n'
    assert json.loads(canonical_line(obj)) == {
        "ok": True, "violations": ["xΔ"], "walls": [[1, 2]]
    }


@pytest.mark.parametrize(
    "obj",
    [
        [Rendered(["[]"])],
        {"steps": [Rendered(["[]"])]},
        {"outer": {"inner": Rendered(["[]"])}},
        {"sets": Rendered(["[]"]), "nested": {"inner": Rendered(["[]"])}},
        ("tuple", Rendered(["1"])),
    ],
)
def test_rendered_below_the_top_level_raises(obj):
    with pytest.raises(TypeError):
        canonical_line(obj)


def test_rendered_as_the_whole_value_is_spliced():
    assert canonical_line(Rendered(["{", '"a":', "[1]", "}"])) == '{"a":[1]}\n'
    assert canonical_dumps(Rendered(iter(["[]"]))) == "[]"


def test_rendered_needs_string_keys():
    with pytest.raises(TypeError):
        canonical_line({1: Rendered(["[]"])})
