"""docs.render against json.dumps(doc, indent=2), which it replaces."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from starplane import docs

texts = st.text(st.characters(codec=None), max_size=6) | st.sampled_from(
    ["", "\x00", "\t\n\r\x1f\x7f", '"\\/', "é中\U0001f600", "\ud800"])
ints = st.integers() | st.sampled_from([0, -1, -(2 ** 70), 2 ** 200])
documents = st.recursive(
    texts | ints,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_render_is_json_dumps_byte_for_byte(doc):
    assert docs.render(doc) == json.dumps(doc, indent=2) + "\n"


def test_render_empty_containers_and_other_scalars():
    doc = {"a": [], "b": {}, "c": [[], {}], "d": [True, None, 1.5], "e": ""}
    assert docs.render(doc) == json.dumps(doc, indent=2) + "\n"
