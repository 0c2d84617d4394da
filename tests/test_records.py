"""The plain result records (PoissonSeries, BerezinData, FitReport,
SolveResult) and the import path they keep light: no heavy stdlib module,
and the Berezin and Lie-word modules only on first use."""

import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import starplane
from starplane.berezin import BerezinData
from starplane.linsolve import SolveResult
from starplane.liewords import FitReport
from starplane.poly import ONE, X, Y, Poly2
from starplane.series import HSeries
from starplane.star import PoissonSeries


def test_poisson_series_positional_and_keyword():
    a = PoissonSeries(1, [X, Y])
    b = PoissonSeries(n_order=1, coeffs=[X, Y])
    assert (a.n_order, a.coeffs) == (b.n_order, b.coeffs) == (1, [X, Y])
    assert a == b


@pytest.mark.parametrize("n, coeffs", [(1, [X]), (0, []), (0, [X, Y]), (2, [X, Y])])
def test_poisson_series_checks_the_coefficient_count(n, coeffs):
    with pytest.raises(ValueError, match="coefficient count"):
        PoissonSeries(n, coeffs)


def test_poisson_series_compares_trimmed_coefficients():
    assert PoissonSeries(2, [X, Y, Poly2.zero()]) == PoissonSeries(1, [X, Y])
    assert PoissonSeries(1, [X, Y]) != PoissonSeries(1, [X, X])
    assert PoissonSeries(0, [X]) != "PoissonSeries(0, [x])"
    assert repr(PoissonSeries(0, [X])) == f"PoissonSeries(n_order=0, coeffs=[{X!r}])"


def test_berezin_data_positional_and_keyword():
    f = HSeries(1, [ONE, X])
    a = BerezinData(None, f, -f, X, 1)
    b = BerezinData(S=None, f=f, tau=-f, phi=X, n_order=1)
    assert (a.S, a.f, a.tau, a.phi, a.n_order) == (None, f, -f, X, 1)
    assert a == b
    assert a != BerezinData(None, f, f, X, 1)
    assert repr(a) == (f"BerezinData(S=None, f={f!r}, tau={-f!r}, phi={X!r}, n_order=1)")


def test_fit_report_defaults_are_fresh_per_instance():
    a, b = FitReport(2, "ok"), FitReport(k=2, status="ok")
    assert (a.lambdas, a.num_unknowns, a.rank, a.kernel_dim, a.samples) == ({}, 0, 0, 0, [])
    assert a == b
    a.lambdas[(0,), (0,)] = Fraction(1, 2)
    a.samples.append(X)
    assert b.lambdas == {} and b.samples == [] and FitReport(2, "ok").lambdas == {}
    assert a != b


def test_fit_report_positional_and_keyword():
    lam = {((0,), (0,)): Fraction(1)}
    a = FitReport(1, "underdetermined", lam, 4, 3, 1, [X])
    b = FitReport(k=1, status="underdetermined", lambdas=lam, num_unknowns=4, rank=3,
                  kernel_dim=1, samples=[X])
    assert a == b and a.lambdas is lam
    assert repr(a) == (f"FitReport(k=1, status='underdetermined', lambdas={lam!r}, "
                       f"num_unknowns=4, rank=3, kernel_dim=1, samples=[{X!r}])")
    a.status = "not_representable"  # fit_lie_words updates its report in place
    assert a != b


def test_solve_result_positional_and_keyword():
    a = SolveResult(True, [Fraction(1), Fraction(0)], 1, 1)
    b = SolveResult(consistent=True, solution=[Fraction(1), Fraction(0)], rank=1, kernel_dim=1)
    assert a == b
    assert a != SolveResult(False, None, 1, 1)
    assert repr(SolveResult(False, None, 2, 0)) == (
        "SolveResult(consistent=False, solution=None, rank=2, kernel_dim=0)")


def test_records_compare_only_within_their_class():
    assert SolveResult(True, None, 0, 0) != FitReport(0, "ok")
    assert SolveResult(True, None, 0, 0).__eq__((True, None, 0, 0)) is NotImplemented
    with pytest.raises(TypeError):
        hash(SolveResult(True, None, 0, 0))


def test_records_keep_to_their_fields():
    r = SolveResult(True, None, 0, 0)
    with pytest.raises(AttributeError):
        r.extra = 1


LAZY_MODULES = {"starplane.berezin", "starplane.liewords", "starplane.linsolve",
                "starplane.localized"}


def modules_added_by(code):
    """The modules a fresh interpreter holds after running code, less those it started with.

    The interpreter runs without the site module, so no start-up hook loads
    anything first.
    """
    src = str(Path(starplane.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); {code}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_package_import_loads_no_heavy_stdlib_modules():
    loaded = modules_added_by("import starplane, starplane.docs, starplane.cli")
    assert "starplane.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    # the Berezin pipeline and the Lie-word fit load on first use
    assert not loaded & LAZY_MODULES


def test_lazy_names_load_their_module_on_first_access():
    loaded = modules_added_by("import starplane; starplane.fit_lie_words")
    assert {"starplane.liewords", "starplane.linsolve"} <= loaded
    assert not loaded & {"starplane.berezin", "starplane.localized"}


def test_cli_quantize_loads_no_berezin_or_lie_word_module():
    loaded = modules_added_by("from starplane import cli; "
                              "assert cli.main(['quantize', '--phi', 'x*y', '--order', '3']) == 0")
    assert "starplane.cli" in loaded
    assert not loaded & LAZY_MODULES


def test_every_exported_name_is_its_defining_module_object():
    for name in starplane.__all__:
        value = getattr(starplane, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name


def test_star_import_binds_every_exported_name():
    scope = {}
    exec("from starplane import *", scope)
    assert set(starplane.__all__) <= set(scope)
    assert scope["berezin_pipeline"] is sys.modules["starplane.berezin"].berezin_pipeline


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(starplane, "no_such_name")
    assert not hasattr(starplane, "hochschild_b")


def test_lazily_loaded_modules_hold_no_functools_cache():
    # perfbench's cache_clearer collects caches only from the modules loaded
    # at start-up, so a cache in a module loaded later would never be cleared
    for name in sorted(LAZY_MODULES):
        module = importlib.import_module(name)
        cached = [key for key, value in vars(module).items()
                  if callable(getattr(value, "cache_clear", None))]
        assert not cached, (name, cached)
