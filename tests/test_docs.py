"""docs.render against json.dumps(doc, indent=2), which it replaces, and the
polynomial printer against a reference written from Fraction coefficients."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from starplane import docs, poly
from starplane.diffop import BiDiffOp, DiffOp
from starplane.parser import parse_poly
from starplane.poly import X, Y, Poly2, format_poly, grlex_key
from starplane.quantize import quantize
from starplane.star import GaugeOp, StarProduct, gauge_transform, normalize

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


# -- the polynomial printer ---------------------------------------------------


def reference_format(p: Poly2) -> str:
    """The canonical text of p, written from its Fraction coefficients."""
    chunks = []
    for (i, j), c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        a = abs(c)
        factors = [str(a)] if a != 1 or (i, j) == (0, 0) else []  # str(Fraction): p/q or p
        factors += ["x" if i == 1 else f"x^{i}"] if i else []
        factors += ["y" if j == 1 else f"y^{j}"] if j else []
        sign = ("- " if c < 0 else "+ ") if chunks else ("-" if c < 0 else "")
        chunks.append(sign + "*".join(factors))
    return " ".join(chunks) or "0"


big = st.integers(-(2 ** 200), 2 ** 200) | st.sampled_from([1, -1, 2 ** 200, -(2 ** 200) + 1])
coefficients = st.builds(Fraction, big, st.integers(1, 2 ** 200) | st.sampled_from([1, 2, 6]))
polys = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)), coefficients,
                        max_size=8).map(Poly2)


@given(polys)
@settings(max_examples=400, deadline=None)
def test_format_poly_matches_the_reference_printer(p):
    assert format_poly(p) == reference_format(p)


def test_format_poly_edge_cases():
    for p in (Poly2.zero(), Poly2.const(-1), Poly2.const(2 ** 200), -X, X * Y ** 10,
              Y ** 2 - 3 * X, Poly2({(0, 0): Fraction(-3, 2 ** 200), (1, 1): 1, (2, 0): -1})):
        assert format_poly(p) == reference_format(p)
    assert format_poly(Poly2.zero()) == "0"


def test_operator_documents_build_no_poly2(monkeypatch):
    # every operator of these documents is a kernel result or a closed-form
    # read-off holding only its integer form: printing it builds no Poly2, and
    # the bytes equal those of the same values rebuilt from their terms
    U = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})
    gauged = gauge_transform(quantize(parse_poly("x^2*y+x*y^2"), 4), U)
    W, out = normalize(gauged)
    made, new = [], poly._new
    monkeypatch.setattr(poly, "_new", lambda cls: made.append(cls) or new(cls))
    texts = [docs.render(docs.star_product_doc(gauged)), docs.render(docs.star_product_doc(out)),
             docs.render(docs.gauge_op_doc(W))]
    assert made == []
    monkeypatch.undo()
    rebuilt = [StarProduct(4, {k: BiDiffOp(op.terms) for k, op in m.orders.items()})
               for m in (gauged, out)]
    again = [docs.render(docs.star_product_doc(m)) for m in rebuilt]
    again.append(docs.render(docs.gauge_op_doc(
        GaugeOp(4, {k: DiffOp(op.terms) for k, op in W.orders.items()}))))
    assert texts == again
    assert out.orders and W.orders and all(hasattr(op, "_lifted") for op in W.orders.values())
