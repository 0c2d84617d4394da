"""Command-line surface: schemas, exit codes, byte determinism."""

import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from starplane import cli, docs
from starplane.diffop import DiffOp
from starplane.parser import parse_poly
from starplane.quantize import quantize
from starplane.star import GaugeOp, gauge_transform, moyal_fixture

GOLDEN = Path(__file__).parent / "data"

def run_cli(argv):
    out = io.StringIO()
    stdout = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout
    return code, out.getvalue()

def test_quantize_document():
    code, text = run_cli(["quantize", "--phi", "1", "--order", "3"])
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "star_product" and doc["h_order"] == 3
    k3 = next(t for t in doc["terms"] if t["k"] == 3)
    assert k3["ops"] == [{"df": [3, 0], "dg": [0, 3], "coeff": "1/6"}]

def test_star_product_document_round_trip(tmp_path):
    m = quantize(parse_poly("x^2*y - 3*y"), 3)
    rendered = docs.render(docs.star_product_doc(m))
    back = docs.star_product_from_doc(json.loads(rendered))
    assert back == m
    assert docs.render(docs.star_product_doc(back)) == rendered

def test_assoc_check_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    code, text = run_cli(["quantize", "--phi", "x*y", "--order", "3"])
    good.write_text(text)
    code, report = run_cli(["assoc-check", "--product", str(good)])
    assert code == 0
    assert json.loads(report)["defects"] == []

    bad = tmp_path / "bad.json"
    doc = json.loads(text)
    doc["terms"][0]["ops"][0]["coeff"] = "x"
    bad.write_text(json.dumps(doc))
    code, report = run_cli(["assoc-check", "--product", str(bad)])
    assert code == 1
    assert json.loads(report)["defects"]

def test_assoc_check_names_order_1(tmp_path, capsys):
    # m_1(f, g) = f dy g is no Hochschild cocycle, so order 1 is not associative
    f = tmp_path / "m1.json"
    f.write_text(json.dumps({"kind": "star_product", "h_order": 2, "terms": [
        {"k": 1, "ops": [{"df": [0, 0], "dg": [0, 1], "coeff": "1"}]}]}))
    code, report = run_cli(["assoc-check", "--product", str(f)])
    assert code == 1
    assert [entry["k"] for entry in json.loads(report)["defects"]][0] == 1
    assert capsys.readouterr().err.startswith("error: the product is not associative at order 1")


def test_classify_round_trip_via_cli(tmp_path):
    f = tmp_path / "p.json"
    _, text = run_cli(["quantize", "--phi", "2*x + 5", "--order", "3"])
    f.write_text(text)
    code, out = run_cli(["classify", "--product", str(f)])
    assert code == 0
    assert json.loads(out)["terms"] == [{"i": 0, "phi": "2*x + 5"}]

def test_normalize_emits_gauge_then_product(tmp_path):
    f = tmp_path / "moyal.json"
    f.write_text(docs.render(docs.star_product_doc(moyal_fixture(1, 3))))
    code, out = run_cli(["normalize", "--product", str(f)])
    assert code == 0
    first, rest = out.split("}\n{", 1)
    gauge = json.loads(first + "}")
    product = json.loads("{" + rest)
    assert gauge["kind"] == "gauge_op"
    assert gauge["terms"][0]["ops"] == [{"d": [1, 1], "coeff": "-1/2"}]
    assert product["kind"] == "star_product"

def test_star_mul_document(tmp_path):
    f = tmp_path / "p.json"
    _, text = run_cli(["quantize", "--phi", "1", "--order", "2"])
    f.write_text(text)
    code, out = run_cli(["star-mul", "--product", str(f), "--f", "x", "--g", "y"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "h_series", "h_order": 2,
                   "terms": [{"i": 0, "poly": "x*y"}, {"i": 1, "poly": "1"}]}

def test_berezin_document():
    code, out = run_cli(["berezin", "--phi", "x*y", "--order", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "berezin_data"
    assert doc["f"] == [{"i": 0, "num": "1", "phi_pow": 1}]
    assert doc["S"] == [{"b": 0, "series": [{"i": 1, "num": "1/2*y", "phi_pow": 0}]}]

@pytest.mark.parametrize("phi, f", [("1", [{"i": 0, "num": "1", "phi_pow": 0}]),
                                    ("2", [{"i": 0, "num": "1/2", "phi_pow": 0}])])
def test_berezin_constant_phi_prints_f_reduced(phi, f):
    # f_0 = 1/phi is held over phi; the document prints it in lowest terms
    code, out = run_cli(["berezin", "--phi", phi, "--order", "2"])
    assert code == 0
    assert json.loads(out) == {"kind": "berezin_data", "h_order": 2, "phi": phi,
                               "S": [], "f": f, "tau": []}

def test_fit_lie_document():
    code, out = run_cli(["fit-lie", "--k", "1", "--samples", "x*y,x^2*y"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["lambdas"] == [{"sigma": [0], "tau": [0], "value": "1/2"}]

def test_parse_error_exit_code():
    code, _ = run_cli(["quantize", "--phi", "x y", "--order", "2"])
    assert code == 3

def test_usage_error_exit_code():
    code, _ = run_cli(["quantize", "--phi", "x"])
    assert code == 3
    code, _ = run_cli(["no-such-command"])
    assert code == 3

@pytest.mark.parametrize("argv", [
    ["quantize", "--phi", "x*y", "--order", "2", "--extra"],  # an unknown flag
    ["quantize", "--phi", "x*y", "--order", "abc"],
    [],  # no subcommand
])
def test_usage_error_names_no_position(argv, capsys):
    # argparse's messages have no place in a source text, so none is given
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert " line " not in err and "column" not in err

@pytest.mark.parametrize("argv", [
    ["quantize", "--phi", "x", "--order", "0"],
    ["fit-lie", "--k", "0", "--samples", "x*y"],
    ["berezin", "--phi", "0", "--order", "2"],
    ["berezin", "--phi", "x*y", "--order", "0"],
    ["berezin", "--phi", "x*y", "--order", "-1"],
    ["normalize", "--product", str(GOLDEN / "quantize_xy_N5.json"), "--max-op-order", "-1"],
])
def test_argument_outside_domain_exit_code(argv, capsys):
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[-1] == "-1":  # the message names the value given
        assert err.rstrip().endswith("got -1")

# documents with a container of the wrong JSON type, and the part each message names
CONTAINER_ERRORS = {
    '[{"kind": "star_product", "h_order": 1, "terms": []}]':
        "a star_product document must be an object, got an array",
    '{"kind": "star_product", "h_order": 1, "terms": {"k": 1, "ops": []}}':
        "terms must be an array, got an object",
    '{"kind": "star_product", "h_order": 1, "terms": [{"k": 1, "ops": [5]}]}':
        "each entry of ops at order k = 1 must be an object, got a number",
}

@pytest.mark.parametrize("content", [
    "{",
    '{"kind": "star_product", "h_order": 2}',
    '{"kind": "star_product", "h_order": 2, "terms": 5}',
    "[1, 2]",
    '{"kind": "star_product", "h_order": 0, "terms": []}',
    '{"kind": "star_product", "h_order": "2", "terms": []}',
    '{"kind": "star_product", "h_order": 1.0, "terms": []}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "1"}]}, '
    '{"k": 3, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "x"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 0, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "1"}]}]}',
    '{"kind": "star_product", "h_order": 2, "terms": ['
    '{"k": 1, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "1"}]}, '
    '{"k": 1, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "x"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": [1], "dg": [0, 1], "coeff": "1"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": [-1, 0], "dg": [0, 1], "coeff": "1"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": ["a", 0], "dg": [0, 1], "coeff": "1"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": [1.5, 0], "dg": [0, 1], "coeff": "1"}]}]}',
    '{"kind": "star_product", "h_order": 1, "terms": ['
    '{"k": 1, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": "1"}, '
    '{"df": [1, 0], "dg": [0, 1], "coeff": "x"}]}]}',
    *CONTAINER_ERRORS,
])
def test_malformed_product_file_exit_code(tmp_path, capsys, content):
    f = tmp_path / "p.json"
    f.write_text(content)
    code, out = run_cli(["classify", "--product", str(f)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if content in CONTAINER_ERRORS:
        assert err == f"error: {CONTAINER_ERRORS[content]}\n"

@pytest.mark.parametrize("command", ["classify", "assoc-check", "normalize"])
@pytest.mark.parametrize("coeff", ["5", "null"])
def test_non_string_coeff_is_named(tmp_path, capsys, command, coeff):
    f = tmp_path / "p.json"
    f.write_text('{"kind": "star_product", "h_order": 1, "terms": ['
                 '{"k": 1, "ops": [{"df": [1, 0], "dg": [0, 1], "coeff": %s}]}]}' % coeff)
    code, out = run_cli([command, "--product", str(f)])
    assert code == 3 and out == ""
    value = {"5": "5", "null": "None"}[coeff]
    assert capsys.readouterr().err == f"error: coeff must be a polynomial string, got {value}\n"

def test_missing_file_exit_code():
    code, _ = run_cli(["classify", "--product", "/nonexistent/p.json"])
    assert code == 3

def test_unreadable_product_path_exit_code(tmp_path, capsys):
    code, out = run_cli(["normalize", "--product", str(tmp_path)])  # a directory
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

@pytest.mark.parametrize("case", ["phi", "product", "coeff"])
def test_deeply_nested_input_exit_code(tmp_path, case):
    # past the interpreter's recursion limit: one error line, no traceback
    f = tmp_path / "p.json"
    if case == "phi":
        argv = ["quantize", "--phi", "(" * 300 + "x*y" + ")" * 300, "--order", "1"]
    else:
        f.write_text("[" * 200000 + "]" * 200000 if case == "product" else
                     '{"kind": "star_product", "h_order": 1, "terms": [{"k": 1, "ops": ['
                     '{"df": [1, 0], "dg": [0, 1], "coeff": "%s"}]}]}' % ("(" * 300 + "x" + ")" * 300))
        argv = ["classify", "--product", str(f)]
    proc = subprocess.run([sys.executable, "-m", "starplane.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr

def test_infeasible_exit_code(tmp_path):
    # classify on a product that is not pure-shape is a NotNormalized failure
    f = tmp_path / "moyal.json"
    f.write_text(docs.render(docs.star_product_doc(moyal_fixture(1, 2))))
    code, _ = run_cli(["classify", "--product", str(f)])
    assert code == 2

def test_byte_determinism_across_processes():
    cmd = [sys.executable, "-m", "starplane.cli",
           "quantize", "--phi", "x^2*y - 3*y", "--order", "3"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    in_proc = run_cli(["quantize", "--phi", "x^2*y - 3*y", "--order", "3"])[1]
    assert runs[0].decode() == in_proc

@pytest.mark.parametrize("phi, order", [
    ("1" * 5000, 1),             # a literal beyond the 4,300-digit str -> int limit
    ("7" * 3000 + "*x*y", 3),    # order-3 numerators beyond the int -> str limit
    ("x^" + "1" * 5000, 1),      # an exponent beyond both
])
def test_integers_of_any_length_round_trip(phi, order):
    code, out = run_cli(["quantize", "--phi", phi, "--order", str(order)])
    assert code == 0
    assert docs.star_product_from_doc(json.loads(out)) == quantize(parse_poly(phi), order)

@pytest.mark.parametrize("phi, order, name", [
    ("x*y", 5, "quantize_xy_N5.json"),
    ("x^2*y + x*y^2", 4, "quantize_x2y_plus_xy2_N4.json"),
    ("1", 4, "quantize_1_N4.json"),
    ("1 + x + y^2", 4, "quantize_1_plus_x_plus_y2_N4.json"),
])
def test_quantize_stdout_matches_golden_bytes(phi, order, name):
    # captured from the generic sparse solver; any solver must reproduce them
    cmd = [sys.executable, "-m", "starplane.cli", "quantize", "--phi", phi, "--order", str(order)]
    out = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out == (GOLDEN / name).read_bytes()

# U = 1 + h(2 dxdy + 1/3 dx^2) - h^2 dy^2, a polar gauge with mixed and pure derivatives
GAUGE = GaugeOp(4, {1: DiffOp({(1, 1): 2, (2, 0): Fraction(1, 3)}), 2: DiffOp({(0, 2): -1})})

@pytest.mark.parametrize("kind, arg, order, name", [
    ("gauged", "x*y", 4, "normalize_xy_N4_gauged.json"),
    ("gauged", "x^2*y + x*y^2", 4, "normalize_x2y_plus_xy2_N4_gauged.json"),
    ("moyal", "1", 4, "normalize_moyal_1_N4.json"),
    ("moyal", "3/7", 5, "normalize_moyal_3_7_N5.json"),
])
def test_normalize_stdout_matches_golden_bytes(tmp_path, kind, arg, order, name):
    # captured from the inverse-based normalize that re-gauged once per order
    if kind == "gauged":
        m = gauge_transform(quantize(parse_poly(arg), order), GAUGE)
    else:
        m = moyal_fixture(Fraction(arg), order)
    f = tmp_path / "p.json"
    f.write_text(docs.render(docs.star_product_doc(m)))
    cmd = [sys.executable, "-m", "starplane.cli", "normalize", "--product", str(f)]
    out = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out == (GOLDEN / name).read_bytes()

def _cli_stdout(*argv):
    cmd = [sys.executable, "-m", "starplane.cli", *argv]
    return subprocess.run(cmd, capture_output=True, check=True).stdout

@pytest.mark.parametrize("argv, name", [
    (["berezin", "--phi", "x^2*y+x*y^2", "--order", "3"], "berezin_x2y_plus_xy2_N3.json"),
    (["fit-lie", "--k", "2", "--samples", "x*y,x^2*y,x*y^2,x^3*y^2"],
     "fit_lie_k2_four_samples.json"),
    (["quantize", "--phi", "x*y+1/3*x^3*y^2", "--order", "4"],
     "quantize_xy_plus_x3y2_3_N4.json"),
])
def test_stdout_matches_golden_bytes(argv, name):
    # captured from the Fraction-dict Poly2; the printer and parser must keep them
    assert _cli_stdout(*argv) == (GOLDEN / name).read_bytes()

@pytest.mark.parametrize("argv, name", [
    (["classify"], "classify_xy_plus_x3y2_3_N4.json"),
    (["star-mul", "--f", "x^2*y+3/5*y", "--g", "x*y^3-1/2*x"], "star_mul_xy_plus_x3y2_3_N4.json"),
    (["assoc-check"], "assoc_check_xy_plus_x3y2_3_N4.json"),
])
def test_saved_product_stdout_matches_golden_bytes(argv, name):
    # the product file is the quantize golden of x*y + 1/3*x^3*y^2 at order 4
    product = str(GOLDEN / "quantize_xy_plus_x3y2_3_N4.json")
    out = _cli_stdout(argv[0], "--product", product, *argv[1:])
    assert out == (GOLDEN / name).read_bytes()

def test_console_script_entry_point():
    proc = subprocess.run(["starplane", "quantize", "--phi", "0", "--order", "2"],
                          capture_output=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms"] == []
