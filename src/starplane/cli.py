"""Command-line front end.

Exit codes: 0 success; 1 a checked property failed (nonzero associativity
defect, classifier round trip, unrepresentable fit); 2 infeasible or caps
exceeded; 3 parse or usage errors, including arguments out of range and
malformed product files.  Every nonzero exit writes one "error:" line to
stderr.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import docs
from .berezin import berezin_pipeline
from .errors import EngineError, NotInImage, ParseError, UsageError
from .liewords import fit_lie_words
from .parser import parse_poly
from .quantize import classify_p2, quantize
from .star import assoc_defect, normalize, star_mul


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, 0, 0, expected=())


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="starplane", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="build the star product for a polynomial phi")
    q.add_argument("--phi", required=True)
    q.add_argument("--order", type=int, required=True)

    s = sub.add_parser("star-mul", help="multiply two polynomials in a saved product")
    s.add_argument("--product", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--g", required=True)

    a = sub.add_parser("assoc-check", help="associativity defect of a saved product")
    a.add_argument("--product", required=True)

    n = sub.add_parser("normalize", help="gauge a product into the pure shape")
    n.add_argument("--product", required=True)
    n.add_argument("--max-op-order", type=int, default=None)

    c = sub.add_parser("classify", help="Poisson series of a pure-shape product")
    c.add_argument("--product", required=True)

    b = sub.add_parser("berezin", help="S, density f and certificate tau for phi")
    b.add_argument("--phi", required=True)
    b.add_argument("--order", type=int, required=True)

    f = sub.add_parser("fit-lie", help="universal Lie-word fit at a fixed k")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--samples", required=True, help="comma-separated polynomials")
    return top


def _load_product(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing file, a directory, no permission, ...
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"{path} is not a JSON document: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply to read") from None
    return docs.star_product_from_doc(doc)


def _run(args, out) -> int:
    if args.command == "quantize":
        m = quantize(parse_poly(args.phi), args.order)
        out.write(docs.render(docs.star_product_doc(m)))
        return 0
    if args.command == "star-mul":
        m = _load_product(args.product)
        series = star_mul(m, parse_poly(args.f), parse_poly(args.g))
        out.write(docs.render(docs.h_series_doc(series)))
        return 0
    if args.command == "assoc-check":
        m = _load_product(args.product)
        defects = assoc_defect(m)
        out.write(docs.render(docs.defect_report_doc(defects, m.n_order)))
        bad = [str(k) for k, op in sorted(defects.items()) if op]
        if bad:
            print(f"error: the product is not associative at order {', '.join(bad)}",
                  file=sys.stderr)
            return 1
        return 0
    if args.command == "normalize":
        m = _load_product(args.product)
        u, normed = normalize(m, max_op_order=args.max_op_order)
        out.write(docs.render(docs.gauge_op_doc(u)))
        out.write(docs.render(docs.star_product_doc(normed)))
        return 0
    if args.command == "classify":
        m = _load_product(args.product)
        p = classify_p2(m)
        out.write(docs.render(docs.poisson_series_doc(p)))
        return 0
    if args.command == "berezin":
        data = berezin_pipeline(parse_poly(args.phi), args.order)
        out.write(docs.render(docs.berezin_doc(data)))
        return 0
    if args.command == "fit-lie":
        samples = [parse_poly(s) for s in args.samples.split(",")]
        report = fit_lie_words(samples, args.k)
        out.write(docs.render(docs.fit_report_doc(report)))
        if report.status == "not_representable":
            print(f"error: the samples are not representable by Lie words at k = {args.k}",
                  file=sys.stderr)
            return 1
        return 0
    raise ParseError(f"unknown command {args.command!r}", 0, 0, expected=())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run(args, sys.stdout)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, UsageError)):
            return 3
        return 1 if isinstance(exc, NotInImage) else 2


if __name__ == "__main__":
    sys.exit(main())
