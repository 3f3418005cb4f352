"""Surface syntax, canonical text, JSON records, and the subcommands."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcbracket import (
    BracketKind,
    ZERO,
    from_scalar,
    generator,
    jacobi_residual,
    random_observable,
    scale,
)
import qcbracket
from qcbracket.cli import _KINDS, run
from qcbracket.syntax import (
    DEGREE_CAP,
    NESTING_CAP,
    ExponentError,
    OutputRecord,
    format_observable,
    parse,
)
import oracles
from oracles import assert_canonical, build

X, K, Q, P = (generator(n) for n in "xkqp")

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="no int-to-str digit limit on this Python")


@contextlib.contextmanager
def _digit_limit(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
    assert parse("q^0064") == Q ** 64


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


@pytest.mark.parametrize("text, char, pos", [
    ("x^\u00b2", "\u00b2", 3),         # superscript two
    ("\u0661\u0662*x", "\u0661", 1),  # Arabic-Indic one, two
])
def test_only_ascii_digits_form_integers(capsys, text, char, pos):
    message = f"unexpected character {char!r} at position {pos}"
    with pytest.raises(SyntaxError, match=message):
        parse(text)
    assert run(["canon", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_parse_result_degree_cap():
    # Predicted before computing: deg(a^n) = n*deg(a), deg(a*b) = deg(a) + deg(b).
    assert DEGREE_CAP == 1024
    assert parse("(p^64)^16") == P ** 1024
    assert parse("(x+q)^64*(k^2)^32*(q^64)^14") == (X + Q) ** 64 * K ** 64 * Q ** 896
    with pytest.raises(ExponentError, match="degree 1088 at position 8 exceeds the cap"):
        parse("(p^64)^17")
    with pytest.raises(ExponentError, match="degree 1025 at position 2 exceeds the cap"):
        parse("x*(q*p^63)^16")
    with pytest.raises(ExponentError, match="degree 2048 at position 10"):
        parse("(p^64)^16*(q^64)^16")


def test_result_degree_past_the_cap_exits_2(capsys):
    assert run(["canon", "(p^64)^16*(q^64)^16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: result degree 2048 at position 10"
                            " exceeds the cap of 1024\n")


@pytest.mark.parametrize("text", [
    "((1+hbar)^64)^64",                # hbar degree 4096
    "((((2^64)^64)^64)^64)^64",        # coefficients past the int-to-str limit
    "(((((2^64)^64)^64)^64)^64)^64",
])
def test_runaway_hbar_and_scalar_powers_exit_2(capsys, text):
    # Refused from the operands' degree and coefficient size, before computing.
    start = time.perf_counter()
    assert run(["canon", text]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_large_printable_powers_run(capsys):
    assert run(["canon", "(2^64)^64"]) == 0
    assert capsys.readouterr().out == format_observable(from_scalar(2 ** 4096)) + "\n"
    assert run(["canon", "((1+hbar)^8)^8"]) == 0
    expected = (from_scalar(1) + generator("hbar")) ** 64
    assert capsys.readouterr().out == format_observable(expected) + "\n"


@pytest.mark.parametrize("argv, total", [
    (["bracket", "--kind", "commutator", "(p^64)^16", "(q^64)^16"], 2048),
    (["leibniz", "--kind", "commutator", "(p^64)^16", "(q^64)^16", "(p^64)^16"], 3072),
    (["jacobi", "--kind", "normal", "(x^64)^8", "(k^64)^8", "q", "--format", "json"], 1025),
])
def test_command_inputs_past_the_degree_cap_exit_2(capsys, argv, total):
    # Each input is within the cap; the products the command forms are not.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: inputs of total degree {total}"
                            " exceed the cap of 1024\n")


_NINES = "9" * 5000


@needs_digit_limit
@pytest.mark.parametrize("text, message", [
    # An exponent meets its cap first, the number unprinted.
    ("x^" + _NINES, "exponent of 5000 digits at position 3 exceeds the cap of 64"),
    (_NINES, "integer of 5000 digits at position 1 exceeds the 4300-digit limit of int parsing"),
    ("1/" + _NINES,
     "integer of 5000 digits at position 3 exceeds the 4300-digit limit of int parsing"),
])
def test_integer_literals_past_the_digit_limit_exit_2(capsys, text, message):
    # Refused before int() reads them: a position, not the interpreter's message.
    with _digit_limit(4300):
        code = run(["canon", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@needs_digit_limit
def test_command_inputs_past_the_digit_limit_exit_2(capsys):
    # Each input prints; the products the bracket forms would not.
    sevens = "7" * 4000
    with _digit_limit(4300):
        code = run(["bracket", "--kind", "commutator", f"{sevens}*q", f"{sevens}*p"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: input coefficients of about 26576 bits in total"
                            " exceed the 4300-digit limit of int printing\n")


def test_command_inputs_at_the_degree_cap_run(capsys):
    assert run(["bracket", "--kind", "poisson", "(x^50)^20", "k^24"]) == 0
    assert capsys.readouterr().out == "24000*x^999*k^23\n"


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


def test_output_record_rejects_repeated_keys():
    # (1/2)*x and x on one key would read back as x if a dict kept the last.
    half = {"hbar": 0, "re": [1, 2], "im": [0, 1]}
    one = {"hbar": 0, "re": [1, 1], "im": [0, 1]}
    # A reader that dropped zeros before these checks would keep the second.
    zero = {"hbar": 0, "re": [0, 3], "im": [0, -5]}
    for terms, message in (
            ([{"exp": [1, 0, 0, 0], "coeff": [half, one]}],
             "repeated hbar degree 0 in the term (1, 0, 0, 0)"),
            ([{"exp": [1, 0, 0, 0], "coeff": [half]}, {"exp": [1, 0, 0, 0], "coeff": [one]}],
             "repeated exponents (1, 0, 0, 0) in the record"),
            ([{"exp": [1, 0, 0, 0], "coeff": [zero]}, {"exp": [1, 0, 0, 0], "coeff": [one]}],
             "repeated exponents (1, 0, 0, 0) in the record"),
            ([{"exp": [1, 0, 0, 0], "coeff": [zero, one]}],
             "repeated hbar degree 0 in the term (1, 0, 0, 0)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            OutputRecord.from_dict({"schema": 1, "canonical_text": "(3/2)*x", "terms": terms})


def test_output_record_holds_only_an_observable():
    for bad in (5, "x", None, {}):
        with pytest.raises(TypeError):
            OutputRecord(bad)
    # Two fields, with a term that no Observable could hold.
    for coeff in ({"hbar": [0], "re": (1, 1), "im": (0, 1)},
                  {"hbar": 0, "re": (1, 0), "im": (0, 1)}):
        with pytest.raises(TypeError):
            OutputRecord("x", ({"exp": (1, 0, 0, 0), "coeff": (coeff,)},))
    assert OutputRecord(parse("x")).to_observable() == parse("x")


def test_output_record_text_is_derived_from_its_terms():
    # An edited text cannot disagree with the terms: the record keeps theirs.
    record = OutputRecord.from_dict({**_x_record(), "canonical_text": "q*p - 7"})
    assert record.to_observable() == parse("x")
    assert record.canonical_text == "x"
    assert record.as_dict()["canonical_text"] == "x"


def _x_record(term=None, **coeff):
    """The record of x, with the term's or its coefficient's fields replaced."""
    coeff = {"hbar": 0, "re": [1, 1], "im": [0, 1], **coeff}
    term = {"exp": [1, 0, 0, 0], "coeff": [coeff]} if term is None else term
    return {"schema": 1, "canonical_text": "x", "terms": [term]}


@pytest.mark.parametrize("payload", [
    [1],
    {"schema": 1},
    {"schema": 1, "canonical_text": "x"},
    {"schema": 1, "canonical_text": "x", "terms": 5},
    {"schema": 1, "terms": []},
    _x_record(5),
    _x_record({"exp": [1, 0, 0, 0]}),
    _x_record({"exp": 5, "coeff": []}),
    _x_record({"exp": [1, 0, 0, 0], "coeff": 5}),
    _x_record({"exp": [1, 0, 0, 0], "coeff": [5]}),
    _x_record(hbar=[0]),
    _x_record(hbar=-1),
    _x_record(re=[1, 0]),
    _x_record(re=[1.5, 1]),
    _x_record(re=[]),
    _x_record(re=[1, 2, 3]),
    _x_record(re="1/2"),
    _x_record(re=[True, 1]),
    _x_record(im=None),
    {**_x_record(), "schema": True},
    {**_x_record(), "schema": 1.0},
    {**_x_record(), "canonical_text": None},
    {**_x_record(), "canonical_text": 5},
])
def test_malformed_records_raise_value_error(payload):
    assert OutputRecord.from_dict(_x_record()).to_observable() == parse("x")
    with pytest.raises(ValueError):
        OutputRecord.from_dict(payload).to_observable()


# --- printers and reader against the Fraction oracle ---------------------------

# Parts that are zero, negative, over a non-unit denominator or past 2**64.
_NUMERATORS = st.integers(-4, 4) | st.integers(-2**80, 2**80)
_DENOMINATORS = st.integers(1, 12) | st.integers(1, 2**80)
_FRACTIONS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)
_EXPONENTS = st.tuples(*[st.integers(0, 2)] * 4)


@st.composite
def _exact_observables(draw):
    """Observables of up to four monomials with up to three hbar degrees each."""
    return build(draw(st.dictionaries(_EXPONENTS, st.dictionaries(
        st.integers(0, 5), st.tuples(_FRACTIONS, _FRACTIONS), max_size=3), max_size=4)))


@settings(deadline=None, max_examples=300)
@given(_exact_observables())
def test_text_and_json_equal_the_fraction_oracle(a):
    assert format_observable(a) == oracles.format_observable(a)
    text = json.dumps(OutputRecord(a).as_dict())
    assert text == json.dumps(oracles.record_as_dict(a))
    assert OutputRecord.from_dict(json.loads(text)).to_observable() == a


# Unreduced pairs, negative denominators and zero parts, beside arbitrary ones.
_PAIRS = (st.sampled_from([[2, 4], [1, -2], [-3, -6], [0, 1], [0, -7], [6, -4]])
          | st.tuples(_NUMERATORS, _DENOMINATORS | _DENOMINATORS.map(lambda d: -d)).map(list))


@st.composite
def _payloads(draw):
    terms = [{"exp": list(exp), "coeff": [{"hbar": degree, "re": re, "im": im}
                                          for degree, (re, im) in coeff.items()]}
             for exp, coeff in draw(st.dictionaries(_EXPONENTS, st.dictionaries(
                 st.integers(0, 5), st.tuples(_PAIRS, _PAIRS), max_size=3), max_size=4)).items()]
    return {"schema": 1, "canonical_text": "", "terms": terms}


@settings(deadline=None, max_examples=300)
@given(_payloads())
def test_from_dict_equals_the_fraction_oracle(payload):
    a = OutputRecord.from_dict(payload).to_observable()
    assert_canonical(a)
    assert a == oracles.record_from_dict(payload)


def test_from_dict_reduces_pairs_and_drops_zero_coefficients():
    payload = {"schema": 1, "canonical_text": "", "terms": [
        {"exp": [1, 0, 0, 0], "coeff": [{"hbar": 0, "re": [2, 4], "im": [-3, -6]},
                                        {"hbar": 1, "re": [1, -2], "im": [0, -5]}]},
        {"exp": [0, 1, 0, 0], "coeff": [{"hbar": 2, "re": [0, 3], "im": [0, -1]}]}]}
    a = OutputRecord.from_dict(payload).to_observable()
    assert_canonical(a)
    assert a == build({(1, 0, 0, 0): {0: ((1, 2), (1, 2)), 1: ((-1, 2), 0)}})
    assert format_observable(a) == "(1/2)*x + (1/2)*i*x - (1/2)*hbar*x"


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


def test_kind_spellings(capsys):
    # Each spelling prints what its member's value prints; the second pair
    # of operands tells all four brackets apart.
    for operands in (["x*q", "k"], ["x*p", "k*q"]):
        printed = {}
        for kind in BracketKind:
            assert run(["bracket", "--kind", kind.value, *operands]) == 0
            printed[kind] = capsys.readouterr().out
        for name, kind in _KINDS.items():
            assert run(["bracket", "--kind", name, *operands]) == 0
            assert capsys.readouterr().out == printed[kind], name
    assert len(set(printed.values())) == len(BracketKind)
    # Spellings are exact: no case folding, and no unknown kind.
    for name in ("ALEKSANDROV", "weyl"):
        assert run(["bracket", "--kind", name, "x*q", "k"]) == 2
        assert capsys.readouterr().out == ""


def test_readme_examples_print_what_they_show(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        # A "$ " line is a command; its output runs to the next "$ " line or
        # to the end of the block.
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("qcbracket "):
                examples.append((command, output.strip("\n") + "\n"))
    assert examples
    for command, expected in examples:
        run(shlex.split(command)[1:])
        assert capsys.readouterr().out == expected, command


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


def test_deep_nesting_exits_2(capsys):
    # Past the cap the parser stops with a position instead of recursing
    # until Python's stack runs out.
    assert run(["canon", "(" * 1200 + "x" + ")" * 1200]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: parentheses nested deeper than {NESTING_CAP}"
                            f" at position {NESTING_CAP + 1}\n")
    nested = "(" * NESTING_CAP + "x*q" + ")" * NESTING_CAP
    assert parse(nested) == X * Q
    with pytest.raises(SyntaxError, match=f"position {NESTING_CAP + 1}$"):
        parse("(" + nested + ")")


def test_long_unary_minus_chains_parse():
    assert parse("-" * 3000 + "x") == X
    assert parse("-" * 3001 + "x*q") == -(X * Q)


def _env() -> dict:
    """The environment of a fresh interpreter that imports qcbracket from this checkout."""
    src = str(Path(qcbracket.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports qcbracket from this checkout."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_env(), timeout=60)


@pytest.mark.parametrize("module", ["qcbracket", "qcbracket.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _python("-m", module, "canon", "x*q")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x*q\n", "")


def test_one_process_runs_commands_as_fresh_processes_do():
    # The parser is built once per process; a usage error must leave it as
    # a fresh one for the next command.
    commands = (["bracket", "--kind", "weyl", "x", "k"],
                ["bracket", "--kind", "normal", "x*q", "k*p"])
    fresh = [_python("-m", "qcbracket", *argv) for argv in commands]
    script = ("import sys\nfrom qcbracket.cli import run\n"
              f"for argv in {commands!r}:\n"
              "    code = run(argv)\n"
              "    print(f'exit {code}'); print('---', file=sys.stderr)\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert [proc.stdout, proc.stderr] == [
        "".join(f"{one.stdout}exit {one.returncode}\n" for one in fresh),
        "".join(f"{one.stderr}---\n" for one in fresh)]
    assert [one.returncode for one in fresh] == [2, 0]


@pytest.mark.parametrize("argv", [
    ["canon", "x"],
    ["scan", "--kind", "normal", "--max-degree", "2"],
    ["scan", "--kind", "normal", "--max-degree", "2", "--format", "json"],
    ["scan", "--kind", "normal", "--max-degree", "2", "--jobs", "2"],
    ["--help"],
    ["scan", "--help"],
])
def test_closed_stdout_exits_2_with_one_error_line(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, as it does when ``| head`` has stopped reading.  Buffered,
    # the write fails at the flush; unbuffered, inside the write itself.
    for unbuffered in ("", "1"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with subprocess.Popen([sys.executable, "-m", "qcbracket", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True,
                              env={**_env(), "PYTHONUNBUFFERED": unbuffered}) as proc:
            os.close(write_end)
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2, unbuffered
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_importing_the_library_loads_no_cli_or_pool():
    proc = _python("-c", "import sys, qcbracket; print(sorted(set(sys.modules) & {"
                   "'argparse', 'multiprocessing', 'concurrent.futures',"
                   " 'qcbracket.cli'}))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_all_lists_each_public_name_once():
    public = {name for name, value in vars(qcbracket).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(qcbracket.__all__) == len(set(qcbracket.__all__))
    assert set(qcbracket.__all__) == public


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["jacobi", "x", "q", "p"]) == 2          # missing --kind
    assert run(["bracket", "--kind", "weyl", "x", "k"]) == 2
    assert run(["scan", "--kind", "normal", "--max-degree", "-1"]) == 2
    assert run(["scan", "--kind", "normal", "--jobs", "0"]) == 2
    capsys.readouterr()


def test_scan_past_the_triple_cap_exits_2(capsys):
    # About 10^9 triples: refused before any is evaluated.
    code = run(["scan", "--kind", "normal", "--identity", "leibniz",
                "--max-degree", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: scan of 1003003001 triples exceeds the cap"
                            " of 10000000\n")


@needs_digit_limit
def test_scan_past_the_triple_cap_with_an_unprintable_count_exits_2(capsys):
    # The degree prints, but the triple count has too many digits to.
    with _digit_limit(4300):
        code = run(["scan", "--kind", "normal", "--max-degree", str(10**1200)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: scan of at least 2**47819 triples exceeds the cap"
                            " of 10000000\n")


@pytest.mark.parametrize("samples, message", [
    ("0", "samples must be positive"),
    ("1000001", "axiom sweep of 1000001 samples exceeds the cap of 1000000"),
])
def test_axioms_outside_the_sample_budget_exit_2(capsys, samples, message):
    # Refused before any quadruple is drawn: no output, one error line.
    code = run(["axioms", "--kind", "normal", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unprintable_result_exits_2(capsys, fmt):
    # A coefficient past the int-to-str digit limit is a resource error, not
    # a violation (exit 1) and not a traceback.
    with _digit_limit(640):
        code = run(["canon", "(p^64)^8*(q^64)^8", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: output coefficients of about 3933 bits exceed"
                            " the 640-digit limit of int printing\n")


# --- exit codes on any input -------------------------------------------------

# Ten characters of this alphabet cannot start a large expansion.  Random
# text mostly fails to parse, so half the strings join operands with
# operators and reach the brackets.
_ALPHABET = "xkqphi+-*/^()012 ℏ."
_OPERANDS = ("x", "k", "q", "p", "i", "ℏ", "hbar", "1/2", "q^2", "x*q", "k*p",
             "(x-p)", "-k")


@st.composite
def _expressions(draw):
    if draw(st.booleans()):
        return draw(st.text(_ALPHABET, max_size=10))
    operands = draw(st.lists(st.sampled_from(_OPERANDS), min_size=1, max_size=4))
    text = operands[0]
    for operand in operands[1:]:
        text += draw(st.sampled_from("+-*")) + operand
    return text[:10]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["canon", "bracket", "jacobi", "leibniz"]))
    argv = [command, "--format", draw(st.sampled_from(["text", "json"]))]
    if command != "canon":
        argv += ["--kind", draw(st.sampled_from(list(_KINDS)))]
    arity = {"canon": 1, "bracket": 2}.get(command, 3)
    # After "--", an expression that starts with '-' is still an operand.
    return argv + ["--", *(draw(_expressions()) for _ in range(arity))]


@settings(deadline=None, max_examples=500)
@given(_argvs())
def test_any_expression_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)
