#!/usr/bin/env python3
"""End-to-end tour of the exact quantization engine.

Quantizes a few polynomial brackets, multiplies test functions under the
resulting star products, checks associativity, normalizes the symmetric
Moyal fixture into the pure-shape gauge, and round-trips a product through
the classifier.  Everything is exact rational arithmetic; the script prints
the operator tables as JSON documents.
"""

from __future__ import annotations

import argparse

from starplane import (
    classify_p2,
    docs,
    is_associative,
    moyal_fixture,
    normalize,
    parse_poly,
    quantize,
    star_mul,
)
from starplane.docs import render
from starplane.poly import format_poly


def section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=3, help="truncation order in h")
    ap.add_argument(
        "--phi",
        default="x*y",
        help="bracket coefficient, e.g. '1', 'x', 'x*y', '3/2*x^2*y - y^3'",
    )
    args = ap.parse_args()

    phi = parse_poly(args.phi)

    section(f"quantize(phi = {format_poly(phi)}, order = {args.order})")
    m = quantize(phi, args.order)
    print(render(docs.star_product_doc(m)), end="")
    for k, K in sorted(m.ktables.items()):
        print(f"# order {k}: {sum(len(p.terms) for p in K.terms.values())} kappa terms")

    section("star multiplication of test polynomials")
    for fs, gs in [("x", "y"), ("y", "x"), ("x^2", "y^2")]:
        prod = star_mul(m, parse_poly(fs), parse_poly(gs))
        terms = ", ".join(
            f"h^{i}*({format_poly(prod[i])})"
            for i in range(args.order + 1)
            if not prod[i].is_zero()
        )
        print(f"  {fs} * {gs} = {terms or '0'}")
    print(f"  associative through h^{args.order}: {is_associative(m)}")

    section("normalize the symmetric Moyal fixture")
    moyal = moyal_fixture(1, args.order)
    u, normal = normalize(moyal)
    print("gauge operator:")
    print(render(docs.gauge_op_doc(u)), end="")
    print("normalized product:")
    print(render(docs.star_product_doc(normal)), end="")

    section("classifier round trip")
    p = classify_p2(m)
    print("recovered bracket series:")
    print(render(docs.poisson_series_doc(p)), end="")


if __name__ == "__main__":
    main()
