"""Random command lines and damaged product files never end in a traceback.

Every run must exit with a documented code (0, 1, 2 or 3); a nonzero exit
writes exactly one "error:" line to stderr and a zero exit writes nothing
there.  Orders stay <= 3 so each example is quick.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starplane import cli, docs
from starplane.parser import parse_poly
from starplane.quantize import quantize
from starplane.star import moyal_fixture


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    return code


monomials = st.builds(lambda c, i, j: f"{c}*x^{i}*y^{j}",
                      st.sampled_from(["1", "-2", "1/3", "5/2"]), st.integers(0, 2), st.integers(0, 2))
valid_polys = st.lists(monomials, min_size=1, max_size=3).map(" + ".join)
# no '^' (so no huge powers) and no leading '-' (argparse would read an option)
garbage = st.text(alphabet="xy0123456789+-*/() .", max_size=8).filter(lambda s: not s.startswith("-"))
polys = st.one_of(valid_polys, garbage, st.sampled_from(["0", "x", "x*y", "1/0", "x y"]))
small_ints = st.sampled_from(["-1", "0", "1", "2", "3", "", "x", "2.5", "1e3"])
FLAGS = {
    "quantize": {"--phi": polys, "--order": small_ints},
    "berezin": {"--phi": polys, "--order": small_ints},
    "fit-lie": {"--k": small_ints, "--samples": st.lists(polys, min_size=1, max_size=3).map(",".join)},
    "star-mul": {"--product": None, "--f": polys, "--g": polys},
    "assoc-check": {"--product": None},
    "normalize": {"--product": None, "--max-op-order": small_ints},
    "classify": {"--product": None},
}


@pytest.fixture(scope="module")
def products(tmp_path_factory):
    """Saved product files plus a directory and a missing path."""
    root = tmp_path_factory.mktemp("products")
    paths = [str(root), str(root / "missing.json")]
    for name, m in [("xy", quantize(parse_poly("x*y + 1"), 3)),
                    ("moyal", moyal_fixture(1, 2)),
                    ("bad", quantize(parse_poly("x"), 2))]:
        doc = docs.star_product_doc(m)
        if name == "bad":  # not associative
            doc["terms"][0]["ops"][0]["coeff"] = "x"
        path = root / f"{name}.json"
        path.write_text(docs.render(doc))
        paths.append(str(path))
    return paths


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_argv(products, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    argv = [command]
    for flag, values in FLAGS[command].items():
        if data.draw(st.integers(0, 9)):  # leave a flag out one time in ten
            values = st.sampled_from(products) if values is None else values
            argv += [flag, data.draw(values, label=flag)]
    argv += data.draw(st.sampled_from([[], [], ["extra"], ["--bogus", "1"], [argv[-1]]]))
    run(argv)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([1.5, -0.0]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
BAD = {
    "df": st.sampled_from([[1], [-1, 0], ["a", 0], [1.5, 0], [0, 0, 0], [True, 0], "x", None]),
    "dg": st.sampled_from([[0], [0, -2], [0, "1"], [0, 2.0], [], {}, 3]),
    "k": st.sampled_from([0, -1, 4, "1", 1.5, True, None, 2]),
    "h_order": st.sampled_from([0, -1, "2", 1.5, True, None, 1, 3]),
    "coeff": st.sampled_from(["x y", "1/0", "", "(x", "x^", "--x", 3, None, "x*y + 1/2"]),
    "kind": st.sampled_from(["gauge_op", None, 1]),
}


def locations(node):
    """(container, key) of every value in the document, the root excluded."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else []
    for key, child in items:
        out.append((node, key))
        out += locations(child)
    return out


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_damaged_product_document(products, data):
    base = data.draw(st.sampled_from(products[2:]), label="base")
    with open(base, encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        parent, key = data.draw(st.sampled_from(locations(doc)), label="where")
        action = data.draw(st.sampled_from(["replace", "bad", "delete", "repeat"]), label="action")
        if action == "delete":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        elif action == "bad" and key in BAD:
            parent[key] = data.draw(BAD[key], label=str(key))
        else:
            parent[key] = data.draw(JSON, label="value")
        if not locations(doc):
            break
    path = Path(products[0]) / "damaged.json"
    path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(["assoc-check", "normalize", "classify", "star-mul"]))
    extra = ["--f", "x^2*y + 1", "--g", "x*y^2"] if command == "star-mul" else []
    run([command, "--product", str(path), *extra])
