"""Syntax round-trips and parse diagnostics."""

import functools
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from efasynth.model import (
    BinaryOp, BoolLit, EnumLit, IntLit, LocRef, UnaryOp, VarRef, fold_expr,
    validate,
)
from efasynth.parser import (
    _KEYWORDS, _SYMBOLS, ParseError, _tokenize, format_expr, parse_file, parse_spec,
    unparse,
)

SAMPLE = """
# two-station line
controllable load, unload;
uncontrollable jam;
input bool sensor;

plant station {
  disc int[0..7] pieces = 0, 1;
  disc enum{empty, half, full} tray = empty;
  location work:
    initial when pieces < 2;
    marked;
    edge load when pieces < 7 and tray != full do pieces := pieces + 1;
    edge jam goto stuck;
  location stuck:
    edge unload when sensor do pieces := 0, tray := empty goto work;
}

initial not station.stuck;
marked pieces = 0;
plant invariant pieces <= 7;
requirement invariant load needs tray = empty;
requirement invariant pieces = 7 disables load;
"""


def test_parse_sample_shape():
    spec = parse_spec(SAMPLE, "sample.efa")
    assert [ev.name for ev in spec.events] == ["load", "unload", "jam"]
    assert [ev.controllable for ev in spec.events] == [True, True, False]
    assert [v.name for v in spec.input_vars] == ["sensor"]
    (aut,) = spec.automata
    assert aut.kind == "plant"
    assert [v.name for v in aut.variables] == ["pieces", "tray"]
    assert aut.variables[0].initial == (0, 1)
    assert aut.variables[1].initial == ("empty",)
    assert [loc.name for loc in aut.locations] == ["work", "stuck"]
    assert aut.locations[0].initial == BinaryOp("<", VarRef("pieces"), IntLit(2))
    assert aut.locations[0].marked is True
    assert aut.locations[1].initial is None
    assert [e.events for e in aut.edges] == [["load"], ["jam"], ["unload"]]
    assert aut.edges[0].target is None  # self-loop
    assert aut.edges[1].target == "stuck"
    assert validate(spec) == []


def test_enum_literals_resolved():
    spec = parse_spec(SAMPLE)
    guard = spec.automata[0].edges[0].guard
    assert guard.right == BinaryOp("!=", VarRef("tray"), EnumLit("full"))
    assert spec.automata[0].edges[2].updates[1] == ("tray", EnumLit("empty"))


def test_invariant_forms():
    spec = parse_spec(SAMPLE)
    kinds = [(inv.side, inv.kind, inv.event) for inv in spec.invariants]
    assert kinds == [
        ("plant", "state", None),
        ("requirement", "needs", "load"),
        ("requirement", "disables", "load"),
    ]


def test_precedence():
    expr = parse_spec("initial 1 + 2 mod 3 < 4 and not true or false;").init_preds[0]
    assert expr == BinaryOp(
        "or",
        BinaryOp(
            "and",
            BinaryOp(
                "<",
                BinaryOp("+", IntLit(1), BinaryOp("mod", IntLit(2), IntLit(3))),
                IntLit(4),
            ),
            UnaryOp("not", BoolLit(True)),
        ),
        BoolLit(False),
    )


def test_subtraction_left_associative():
    expr = parse_spec("initial 5 - 2 - 1 = 2;").init_preds[0]
    assert expr.left == BinaryOp("-", BinaryOp("-", IntLit(5), IntLit(2)), IntLit(1))


def test_any_decimal_digit_reads_as_a_number():
    # int() reads every Unicode decimal digit, so the tokenizer accepts them
    expr = parse_spec("initial ３ = 3;").init_preds[0]
    assert expr == BinaryOp("=", IntLit(3), IntLit(3))


def test_binary_operators_associate_left():
    expr = parse_spec("initial a or b or c and d and e;").init_preds[0]
    assert expr == BinaryOp(
        "or",
        BinaryOp("or", VarRef("a"), VarRef("b")),
        BinaryOp("and", BinaryOp("and", VarRef("c"), VarRef("d")), VarRef("e")),
    )
    expr = parse_spec("initial 8 mod 5 mod 2 < 1 = true;").init_preds[0]
    assert expr == BinaryOp(
        "=",
        BinaryOp(
            "<",
            BinaryOp("mod", BinaryOp("mod", IntLit(8), IntLit(5)), IntLit(2)),
            IntLit(1),
        ),
        BoolLit(True),
    )


def test_deeply_parenthesized_expression_parses():
    depth = 130
    text = "initial " + "(" * depth + "true" + ")" * depth + ";"
    assert parse_spec(text).init_preds == [BoolLit(True)]


def test_long_chains_print_and_parse_back():
    # left-deep chains need no parentheses, so any length reads back
    terms = " or ".join(f"x = {i} and not b" for i in range(3000))
    text = f"initial {terms} + 0 < 1;"  # '+' binds tighter than '<'
    printed = format_expr(parse_spec(text).init_preds[0])
    assert f"initial {printed};" == text
    assert format_expr(parse_spec(f"initial {printed};").init_preds[0]) == printed


def test_round_trip_sample():
    spec = parse_spec(SAMPLE)
    again = parse_spec(unparse(spec))
    assert again == spec
    assert parse_spec(unparse(again)) == again


def test_round_trip_shipped_models(models_dir):
    for path in sorted(models_dir.glob("*.efa")):
        spec = parse_file(path)
        assert parse_spec(unparse(spec)) == spec, path.name


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("plant p { location l: edge ; }", "expected"),
        ("controllable a", "expected ';'"),
        ("plant p { disc int[3..1 x; location l: }", "expected ']'"),
        ("initial 1 +;", "expected an expression"),
        ("whatever;", "expected a declaration"),
        ("plant p { location l: } $", "unexpected character"),
        # a digit that is not decimal, which int() cannot read
        ("plant p { disc int[0..3] x = ²; location l: }", "unexpected character"),
        # at the end of the file every error names it
        ("input", "expected a type, found 'end of file'"),
        ("plant a { disc int[0..3] x = ",
         "expected a literal, found 'end of file'"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert fragment in str(err.value)


def test_error_spans_point_into_source():
    with pytest.raises(ParseError) as err:
        parse_spec("controllable a;\nplant p {\n  whoops\n}", "m.efa")
    diag = err.value.diagnostic
    assert (diag.span.file, diag.span.line, diag.span.column) == ("m.efa", 3, 3)
    # the end of the file is one past its last character, after a comment too
    with pytest.raises(ParseError) as err:
        parse_spec("controllable a #c", "m.efa")
    diag = err.value.diagnostic
    assert diag.message == "expected ';', found 'end of file'"
    assert (diag.span.line, diag.span.column) == (1, 18)


# -- lexer properties -------------------------------------------------

# Pieces of text: ASCII letters, digits and symbols; blanks, line breaks and
# comment starts; letters and digits of other scripts (é, ß, fullwidth and
# Arabic-Indic digits), numeric characters that are not decimal digits
# (², ½, Ⅻ) and characters no token starts with; whole keywords and symbols.
_LEXER_PIECES = st.one_of(
    st.sampled_from(string.ascii_letters + string.digits + "{}[]();,:.=<>+-!_"),
    st.sampled_from(" \t\r\n#"),
    st.sampled_from("é ß ３ ٣ ² ½ Ⅻ \x0b \x00 $".split(" ")),
    st.sampled_from(sorted(_KEYWORDS) + list(_SYMBOLS)),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_LEXER_PIECES, max_size=30).map("".join))
def test_tokens_cover_the_source(text):
    lines = text.split("\n")
    try:
        tokens = _tokenize(text, "m.efa")
    except ParseError as err:
        span = err.diagnostic.span
        offset = sum(len(line) + 1 for line in lines[:span.line - 1]) + span.column - 1
        ch = text[offset]
        assert err.diagnostic.message == f"unexpected character {ch!r}"
        # no token starts there
        assert not (ch.isalpha() or ch == "_" or ch.isdecimal() or ch in " \t\r\n#")
        assert not any(text.startswith(sym, offset) for sym in _SYMBOLS)
        return
    *tokens, eof = tokens
    assert (eof.kind, eof.text) == ("eof", "")
    assert (eof.span.line, eof.span.column, eof.span.length) == (len(lines), len(lines[-1]) + 1, 0)
    for tok in tokens:
        line, column, length = tok.span.line, tok.span.column, tok.span.length
        assert lines[line - 1][column - 1:column - 1 + length] == tok.text != ""
        if tok.kind == "ident":
            assert tok.text[0].isalpha() or tok.text[0] == "_"
            assert all(ch.isalnum() or ch == "_" for ch in tok.text)
            assert tok.text not in _KEYWORDS
        elif tok.kind == "nat":
            assert tok.text.isdecimal()
        else:
            assert tok.kind == tok.text and tok.kind in _KEYWORDS | set(_SYMBOLS)
    assert "".join(tok.text for tok in tokens) == re.sub(r"#[^\n]*|[ \t\r\n]", "", text)


# -- random expression round-trips ------------------------------------

_names = st.sampled_from(["x", "y", "count"])


def _exprs():
    leaves = st.one_of(
        st.integers(0, 50).map(IntLit),
        st.booleans().map(BoolLit),
        _names.map(VarRef),
        st.just(LocRef("m", "on")),
    )

    def extend(children):
        ints = st.sampled_from(["+", "-", "mod"])
        cmps = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
        bools = st.sampled_from(["and", "or"])
        return st.one_of(
            st.tuples(st.one_of(ints, cmps, bools), children, children).map(
                lambda t: BinaryOp(*t)
            ),
            children.map(lambda e: UnaryOp("not", e)),
            children.map(lambda e: UnaryOp("-", e)),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@given(_exprs())
def test_expression_print_parse_round_trip(expr):
    # Printing inserts only the parentheses the precedence table requires,
    # so a parse of the output must rebuild the identical tree.
    text = f"initial {format_expr(expr)};"
    assert parse_spec(text).init_preds == [expr]


def test_a_long_chain_prints_in_linear_time():
    # 100,000 terms: copying the whole left text at every operator took
    # 5 s at this length, and 65 s at three times it
    terms = [VarRef(f"v{i % 7}") for i in range(100_000)]
    expr = functools.reduce(lambda a, b: BinaryOp("+", a, b), terms)
    expr = BinaryOp("<", expr, IntLit(3))
    printed = format_expr(expr)
    assert printed.startswith("v0 + v1 + v2") and printed.endswith(" < 3")
    (parsed,) = parse_spec(f"initial {printed};").init_preds
    assert postorder(parsed) == postorder(expr)


def postorder(expr):
    """The nodes of ``expr`` in post-order, which with each operator's arity
    fix the tree; ``==`` on a tree this deep would recurse too far."""
    nodes = []
    fold_expr(
        expr, nodes.append,
        lambda node, _: nodes.append(("unary", node.op)),
        lambda node, *_: nodes.append(("binary", node.op)),
    )
    return nodes
