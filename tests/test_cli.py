"""Surface syntax, canonical text, JSON records, and the subcommands."""

import json
import sys
from fractions import Fraction

import pytest

from qcbracket import (
    BracketKind,
    ZERO,
    from_scalar,
    generator,
    jacobi_residual,
    random_observable,
    scale,
)
from qcbracket.cli import (
    ExponentError,
    OutputRecord,
    format_observable,
    parse,
    run,
)
from oracles import build

X, K, Q, P = (generator(n) for n in "xkqp")


# --- parsing -------------------------------------------------------------------

def test_parse_monomials():
    assert parse("x*q") == X * Q
    assert parse("k^2*p") == build({(0, 2, 0, 1): {0: (1, 0)}})


def test_parse_applies_canonicalization():
    assert parse("p*q") == build({
        (0, 0, 1, 1): {0: (1, 0)},
        (0, 0, 0, 0): {1: (0, -1)},
    })
    assert parse("q*p") == build({(0, 0, 1, 1): {0: (1, 0)}})


def test_parse_scalar_with_hbar_power():
    assert parse("(1/2)*hbar^2") == build({(0, 0, 0, 0): {2: ((1, 2), 0)}})


def test_parse_preserves_written_order():
    assert parse("p*q") == P * Q != parse("q*p")
    assert parse("q*p") == Q * P


def test_parse_evaluates_each_construct():
    assert parse("1/2") == from_scalar(Fraction(1, 2))
    assert parse("1/2") == build({(0, 0, 0, 0): {0: ((1, 2), 0)}})
    assert parse("-x") == -X == scale(-1, X)
    assert parse("q^3") == Q ** 3 == Q * Q * Q
    assert parse("x + k - p") == X + K - P


def test_parse_precedence_and_grouping():
    assert parse("2*q^2") == scale(2, Q * Q)
    assert parse("(q + p)^2") == parse("q + p") * parse("q + p")
    assert parse("x - -k") == parse("x + k")


def test_parse_whitespace_insignificant():
    assert parse(" x * q\t+ 2 ") == parse("x*q+2")


def test_parse_unicode_hbar_alias():
    assert parse("ℏ") == generator("hbar")
    assert parse("2*ℏ^2") == parse("2*hbar^2")


def test_parse_exponent_cap_is_inclusive():
    assert parse("q^64") == Q ** 64


def test_parse_rejects_juxtaposition():
    with pytest.raises(SyntaxError, match="position 3.*'\\*'"):
        parse("x q")
    with pytest.raises(SyntaxError, match="position 2"):
        parse("2x")


def test_parse_unknown_symbol_suggests_product():
    with pytest.raises(SyntaxError, match=r"x\*q"):
        parse("xq")
    with pytest.raises(SyntaxError, match="unknown symbol 'foo' at position 1"):
        parse("foo")


def test_parse_error_positions():
    with pytest.raises(SyntaxError, match="position 5"):
        parse("(x+k")
    with pytest.raises(SyntaxError, match="position 4"):
        parse("x +")
    with pytest.raises(SyntaxError, match="position 1"):
        parse("")
    with pytest.raises(SyntaxError, match="unexpected character '\\$' at position 3"):
        parse("x+$")


def test_parse_division_only_in_rationals():
    with pytest.raises(SyntaxError, match="rational literal"):
        parse("x/2")
    with pytest.raises(SyntaxError, match="zero denominator"):
        parse("1/0")
    with pytest.raises(SyntaxError, match="denominator"):
        parse("1/x")


def test_parse_exponent_errors():
    with pytest.raises(ExponentError, match="negative exponent"):
        parse("q^-2")
    with pytest.raises(ExponentError, match="cap"):
        parse("q^65")
    with pytest.raises(SyntaxError, match="integer exponent"):
        parse("q^x")
    assert issubclass(ExponentError, SyntaxError)


# --- formatting ----------------------------------------------------------------

def test_format_documented_examples():
    assert format_observable(parse("p*q")) == "q*p - i*hbar"
    assert format_observable(ZERO) == "0"
    assert format_observable(parse("q*p")) == "q*p"


def test_format_rationals_and_signs():
    assert format_observable(parse("(1/2)*hbar^2")) == "(1/2)*hbar^2"
    assert format_observable(parse("-2*i*hbar")) == "-2*i*hbar"
    assert format_observable(parse("-(1/2)*x")) == "-(1/2)*x"
    assert format_observable(parse("1")) == "1"
    assert format_observable(parse("-1")) == "-1"
    assert format_observable(parse("i")) == "i"


def test_format_orders_terms_graded_lex_descending():
    text = format_observable(parse("1 + x + k^2 + q*p + x*k*q"))
    assert text == "x*k*q + k^2 + q*p + x + 1"


def test_format_splits_complex_coefficients():
    a = parse("q + i*q + hbar*q")
    assert format_observable(a) == "q + i*q + hbar*q"


def test_format_parse_round_trip_on_generated_observables():
    for seed in range(200):
        a = random_observable(seed, max_degree=4, max_terms=5)
        assert parse(format_observable(a)) == a


# --- JSON records ----------------------------------------------------------------

def test_output_record_schema_fields():
    record = OutputRecord.from_observable(parse("p*q"))
    payload = json.loads(json.dumps(record.as_dict()))
    assert payload["schema"] == 1
    assert payload["canonical_text"] == "q*p - i*hbar"
    assert payload["terms"] == [
        {"exp": [0, 0, 1, 1], "coeff": [{"hbar": 0, "re": [1, 1], "im": [0, 1]}]},
        {"exp": [0, 0, 0, 0], "coeff": [{"hbar": 1, "re": [0, 1], "im": [-1, 1]}]},
    ]


def test_output_record_round_trips():
    for seed in range(50):
        a = random_observable(seed, max_degree=3, max_terms=4)
        record = OutputRecord.from_observable(a)
        assert record.to_observable() == a
        assert parse(record.canonical_text) == a
        rebuilt = OutputRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert rebuilt.to_observable() == a


def test_output_record_rejects_unknown_schema():
    with pytest.raises(ValueError):
        OutputRecord.from_dict({"schema": 2, "canonical_text": "0", "terms": []})


# --- command line ----------------------------------------------------------------

def test_canon_command(capsys):
    assert run(["canon", "p*q"]) == 0
    assert capsys.readouterr().out == "q*p - i*hbar\n"


def test_canon_json_is_a_single_document(capsys):
    assert run(["canon", "p*q", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["canonical_text"] == "q*p - i*hbar"
    assert OutputRecord.from_dict(payload).to_observable() == parse("p*q")


def test_bracket_command(capsys):
    assert run(["bracket", "--kind", "commutator", "q^2", "p^2"]) == 0
    assert capsys.readouterr().out == "4*q*p - 2*i*hbar\n"


def test_jacobi_command_documented_examples(capsys):
    assert run(["jacobi", "--kind", "aleksandrov", "x*q", "x*q*p", "k^2*p"]) == 1
    assert capsys.readouterr().out == "residual: (1/2)*hbar^2\nFAIL\n"

    assert run(["jacobi", "--kind", "normal", "k*p", "x*p", "q^2"]) == 1
    assert capsys.readouterr().out == "residual: -2*i*hbar\nFAIL\n"

    assert run(["jacobi", "--kind", "normal", "x*q", "x*q*p", "k^2*p"]) == 0
    assert capsys.readouterr().out == "residual: 0\nPASS\n"


def test_jacobi_json_output(capsys):
    code = run(["jacobi", "--kind", "aleksandrov", "x*q", "x*q*p", "k^2*p",
                "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["canonical_text"] == "(1/2)*hbar^2"


def test_leibniz_command(capsys):
    assert run(["leibniz", "--kind", "normal", "x", "q", "k*p"]) == 1
    assert capsys.readouterr().out == "residual: i*hbar\nFAIL\n"
    assert run(["leibniz", "--kind", "commutator", "q", "p", "q*p"]) == 0
    assert capsys.readouterr().out == "residual: 0\nPASS\n"


def test_axioms_command(capsys):
    assert run(["axioms", "--kind", "normal", "--samples", "25", "--seed", "9"]) == 0
    assert capsys.readouterr().out == "violations: 0\n"
    assert run(["axioms", "--kind", "commutator", "--samples", "10", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("violations: ")
    assert out != "violations: 0\n"


def test_scan_command_text(capsys):
    code = run(["scan", "--identity", "jacobi", "--kind", "aleksandrov",
                "--max-degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "violations: 0\n"

    code = run(["scan", "--identity", "jacobi", "--kind", "normal",
                "--max-degree", "2"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "violations: 2"
    # canonical storage order puts q^2 first within the quadratic triple
    assert any("triple=(q^2, k*p, x*p)" in line and "residual=-2*i*hbar" in line
               for line in lines)


def test_scan_command_json_reingests(capsys):
    code = run(["scan", "--identity", "jacobi", "--kind", "normal",
                "--max-degree", "2", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    for element in payload:
        triple = [parse(text) for text in element["triple"]]
        rerun = jacobi_residual(BracketKind.NORMAL_ORDER, *triple)
        assert OutputRecord.from_dict(element["residual"]).to_observable() \
            == rerun.residual
        assert element["min_hbar_degree"] >= 1


def test_scan_jobs_flag_is_output_invariant(capsys):
    run(["scan", "--kind", "normal", "--max-degree", "2"])
    sequential = capsys.readouterr().out
    run(["scan", "--kind", "normal", "--max-degree", "2", "--jobs", "2"])
    assert capsys.readouterr().out == sequential


def test_scan_sector_flag(capsys):
    code = run(["scan", "--identity", "leibniz", "--kind", "commutator",
                "--max-degree", "3", "--sector", "quantum"])
    assert code == 0
    assert capsys.readouterr().out == "violations: 0\n"


def test_parse_errors_exit_2(capsys):
    assert run(["canon", "x q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")

    assert run(["jacobi", "--kind", "normal", "x*", "q", "p"]) == 2


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["jacobi", "x", "q", "p"]) == 2          # missing --kind
    assert run(["bracket", "--kind", "weyl", "x", "k"]) == 2
    assert run(["scan", "--kind", "normal", "--max-degree", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this Python")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unprintable_result_exits_2(capsys, fmt):
    # A coefficient past the int-to-str digit limit is a resource error, not
    # a violation (exit 1) and not a traceback.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["canon", "(p^64)^8*(q^64)^8", "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
