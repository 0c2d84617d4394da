"""Canonical JSON documents for every value the CLI can emit.

Ordering rules (total, so rendering is byte-deterministic): h-orders
ascending; operator entries graded-lex ascending on the exponent tuples,
first slot before second before third; polynomial coefficients in the
canonical text form of format_poly.  render() is the single choke point for
byte output.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .diffop import BiDiffOp
from .errors import UsageError
from .parser import parse_poly
from .poly import format_poly, format_rational, format_terms, grlex_key
from .series import HSeries
from .star import GaugeOp, PoissonSeries, StarProduct

# berezin.BerezinData and liewords.FitReport appear in annotations only: importing
# them here would load the Berezin and Lie-word modules with every document.


def render(doc: dict) -> str:
    """json.dumps(doc, indent=2) plus a newline, byte for byte.

    json.dumps with an indent always runs the pure-Python encoder; writing
    the few shapes a document has (dicts with str keys, lists, str, int)
    directly is faster.  Any other scalar goes through json.dumps.
    """
    out = []
    _emit(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(v, out: list, nl: str) -> None:
    """Append the JSON text of v to out; nl is the newline and indent of v's line."""
    t = type(v)
    if t is str:
        out.append(_quote(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif t is dict or t is list:
        if not v:
            out.append("{}" if t is dict else "[]")
            return
        inner = nl + "  "
        sep = ("{" if t is dict else "[") + inner
        for x in v:
            out.append(sep)
            if t is dict:
                out.append(_quote(x))
                out.append(": ")
                x = v[x]
            _emit(x, out, inner)
            sep = "," + inner
        out.append(nl + ("}" if t is dict else "]"))
    else:
        out.append(json.dumps(v))


def _op_entries(op, names) -> list:
    """op's terms graded-lex ascending slot by slot, each as its named index
    lists plus coeff; a DiffOp key is one slot.  Printed from the operator's
    integer form, so it builds no Poly2 terms."""
    den, terms = op._lifted
    out = []
    for key, flat in sorted(terms, key=lambda kf: tuple(map(grlex_key, kf[0]))):
        entry = {name: list(idx) for name, idx in zip(names, key)}
        entry["coeff"] = format_terms([((i, j), v) for i, j, v in flat], den)
        out.append(entry)
    return out


def _series_doc(kind: str, s, names) -> dict:
    """A StarProduct or GaugeOp: its nonzero orders ascending."""
    terms = [{"k": k, "ops": _op_entries(op, names)}
             for k in range(1, s.n_order + 1) if (op := s.order_op(k))]
    return {"kind": kind, "h_order": s.n_order, "terms": terms}


def star_product_doc(m: StarProduct) -> dict:
    return _series_doc("star_product", m, ("df", "dg"))


def _multi_index(v) -> tuple:
    if type(v) is not list or len(v) != 2 or any(type(e) is not int or e < 0 for e in v):
        raise UsageError(f"a multi-index must be a pair of integers >= 0, got {v!r}")
    return tuple(v)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(v, t: type, what: str):
    """v if its JSON type is t's, else UsageError naming what and both types."""
    if type(v) is not t:
        got = _JSON_TYPES.get(type(v), "a value")
        raise UsageError(f"{what} must be {_JSON_TYPES[t]}, got {got}")
    return v


def star_product_from_doc(doc: dict) -> StarProduct:
    """Read a star_product document; a malformed one raises UsageError naming its wrong part."""
    try:
        if _expect(doc, dict, "a star_product document").get("kind") != "star_product":
            raise UsageError(f"expected a star_product document, got {doc.get('kind')!r}")
        n = doc["h_order"]
        if type(n) is not int or n < 1:
            raise UsageError(f"h_order must be an integer >= 1, got {n!r}")
        orders = {}
        for entry in _expect(doc["terms"], list, "terms"):
            k = _expect(entry, dict, "each entry of terms")["k"]
            if type(k) is not int or not 1 <= k <= n:
                raise UsageError(f"term order k must be an integer in 1..{n}, got {k!r}")
            if k in orders:
                raise UsageError(f"term order k = {k} appears twice")
            terms = {}
            for op in _expect(entry["ops"], list, f"ops of order k = {k}"):
                _expect(op, dict, f"each entry of ops at order k = {k}")
                key = (_multi_index(op["df"]), _multi_index(op["dg"]))
                if key in terms:
                    raise UsageError(f"order k = {k} repeats the entry df = {op['df']}, "
                                     f"dg = {op['dg']}")
                coeff = op["coeff"]
                if type(coeff) is not str:
                    raise UsageError(f"coeff must be a polynomial string, got {coeff!r}")
                terms[key] = parse_poly(coeff)
            orders[k] = BiDiffOp(terms)
        return StarProduct(n, orders)
    except KeyError as exc:
        raise UsageError(f"star_product document lacks the key {exc}") from None


def gauge_op_doc(u: GaugeOp) -> dict:
    return _series_doc("gauge_op", u, ("d",))


def poisson_series_doc(p: PoissonSeries) -> dict:
    coeffs = p.trimmed()
    return {"kind": "poisson_series",
            "terms": [{"i": i, "phi": format_poly(c)} for i, c in enumerate(coeffs)]}


def h_series_doc(s: HSeries) -> dict:
    terms = [{"i": i, "poly": format_poly(c)}
             for i, c in enumerate(s.coeffs) if c]
    return {"kind": "h_series", "h_order": s.order, "terms": terms}


def defect_report_doc(defects: dict, h_order: int) -> dict:
    entries = [{"k": k, "terms": _op_entries(defects[k], ("df", "dg", "dh"))}
               for k in sorted(defects) if defects[k]]
    return {"kind": "defect_report", "h_order": h_order, "defects": entries}


def _localized_series(s: HSeries):
    """The nonzero coefficients, each printed in lowest terms."""
    reduced = ((i, c.reduced()) for i, c in enumerate(s.coeffs) if c)
    return [{"i": i, "num": format_poly(c.num), "phi_pow": c.power} for i, c in reduced]


def berezin_doc(data: BerezinData) -> dict:
    s_entries = [{"b": b, "series": _localized_series(w)}
                 for b, w in sorted(data.S.items())]
    return {"kind": "berezin_data",
            "h_order": data.n_order,
            "phi": format_poly(data.phi),
            "S": s_entries,
            "f": _localized_series(data.f),
            "tau": _localized_series(data.tau)}


def fit_report_doc(r: FitReport) -> dict:
    lambdas = [{"sigma": list(s), "tau": list(t),
                "value": format_rational(v)}
               for (s, t), v in sorted(r.lambdas.items()) if v]
    return {"kind": "fit_report", "k": r.k, "status": r.status,
            "num_unknowns": r.num_unknowns, "rank": r.rank,
            "kernel_dim": r.kernel_dim,
            "samples": [format_poly(p) for p in r.samples],
            "lambdas": lambdas}
