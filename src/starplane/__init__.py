"""Exact symbolic star products on the polarized plane.

Importing the package loads the quantize/classify core: poly, series,
diffop, star, quantize, parser and errors.  The Berezin pipeline (berezin,
localized) and the Lie-word fit (liewords, linsolve) load on first access
to one of their names, so a process that only quantizes, gauges, normalizes
or classifies never compiles them.
"""

from .diffop import BiDiffOp, DiffOp, TriDiffOp, build_rhs_T, euler_lagrange
from .parser import parse_poly
from .poly import Poly2, format_poly
from .quantize import classify_p2, quantize, quantize_series, solve_order
from .series import HSeries
from .star import (
    GaugeOp,
    PoissonSeries,
    StarProduct,
    assoc_defect,
    extract_poisson_p3,
    gauge_transform,
    is_associative,
    moyal_fixture,
    normalize,
    spq_membership,
    star_mul,
)

# Public names loaded on first access (PEP 562), by defining submodule.
_LAZY = {
    "BerezinData": "berezin", "apply_S": "berezin", "ad_x": "berezin",
    "berezin_pipeline": "berezin", "density_f": "berezin", "extract_S": "berezin",
    "FitReport": "liewords", "fit_lie_words": "liewords",
    "LocalizedFn": "localized",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


__all__ = [
    "BerezinData", "apply_S", "ad_x", "berezin_pipeline", "density_f", "extract_S",
    "BiDiffOp", "DiffOp", "TriDiffOp", "build_rhs_T", "euler_lagrange",
    "FitReport", "fit_lie_words", "LocalizedFn", "parse_poly",
    "Poly2", "format_poly", "classify_p2", "quantize", "quantize_series",
    "solve_order", "HSeries", "GaugeOp", "PoissonSeries",
    "StarProduct", "assoc_defect", "extract_poisson_p3", "gauge_transform",
    "is_associative", "moyal_fixture", "normalize", "spq_membership",
    "star_mul",
]

__version__ = "0.1.0"
