"""Exact symbolic star products on the polarized plane."""

from .berezin import BerezinData, YOpSeries, ad_x, berezin_pipeline, density_f, extract_S
from .diffop import (
    BiDiffOp,
    DiffOp,
    KTable,
    TriDiffOp,
    build_rhs_T,
    euler_lagrange,
    hochschild_b,
)
from .liewords import FitReport, fit_lie_words
from .localized import LocalizedFn
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
    star_mul_series,
)

__all__ = [
    "BerezinData", "YOpSeries", "ad_x", "berezin_pipeline", "density_f", "extract_S",
    "BiDiffOp", "DiffOp", "KTable", "TriDiffOp", "build_rhs_T", "euler_lagrange",
    "hochschild_b", "FitReport", "fit_lie_words", "LocalizedFn", "parse_poly",
    "Poly2", "format_poly", "classify_p2", "quantize", "quantize_series",
    "solve_order", "HSeries", "GaugeOp", "PoissonSeries",
    "StarProduct", "assoc_defect", "extract_poisson_p3", "gauge_transform",
    "is_associative", "moyal_fixture", "normalize", "spq_membership",
    "star_mul", "star_mul_series",
]

__version__ = "0.1.0"
