"""Validation, evaluation, and statistics over the in-memory model."""

import pytest

from efasynth.model import (
    Automaton, BinaryOp, BoolDomain, BoolLit, Diagnostic, Edge, EnumDomain,
    EnumLit, Event, IntDomain, IntLit, Location, LocRef, Span, Specification,
    UnaryOp, VarRef, Variable, domain_size, eval_expr, fold_expr,
    fresh_name, literal_codes, map_leaves, model_stats, validate,
)
from efasynth.parser import parse_file


def tiny_spec():
    """One plant: a two-location toggle with a bounded counter."""
    aut = Automaton(
        "m",
        "plant",
        variables=[Variable("x", IntDomain(0, 3), initial=(0,), owner="m")],
        locations=[Location("off", initial=True), Location("on", marked=True)],
        edges=[
            Edge("off", ["go"], None, [("x", BinaryOp("+", VarRef("x"), IntLit(1)))], "on"),
            Edge("on", ["stop"], None, [], "off"),
        ],
    )
    return Specification(
        events=[Event("go", True), Event("stop", False)], automata=[aut]
    )


def test_valid_spec_has_no_diagnostics():
    assert validate(tiny_spec()) == []


def test_duplicate_names_reported():
    spec = tiny_spec()
    spec.events.append(Event("go", False))
    spec.automata[0].variables.append(
        Variable("x", BoolDomain(), owner="m")
    )
    messages = [d.message for d in validate(spec)]
    assert any("duplicate event 'go'" in m for m in messages)
    assert any("duplicate name 'x'" in m for m in messages)


def test_guard_must_be_boolean():
    spec = tiny_spec()
    spec.automata[0].edges[0].guard = BinaryOp("+", VarRef("x"), IntLit(1))
    assert any("guard" in d.message for d in validate(spec))


def test_assignment_to_foreign_variable_rejected():
    spec = tiny_spec()
    other = Automaton(
        "n",
        "plant",
        locations=[Location("only", initial=True, marked=True)],
        edges=[Edge("only", ["go"], None, [("x", IntLit(1))], None)],
    )
    spec.automata.append(other)
    assert any("global read, local write" in d.message for d in validate(spec))


def test_input_variable_cannot_be_assigned():
    spec = tiny_spec()
    spec.input_vars.append(Variable("s", BoolDomain(), kind="input"))
    spec.automata[0].edges[1].updates = [("s", BoolLit(True))]
    assert any("input variable 's'" in d.message for d in validate(spec))


def test_modulus_must_be_positive_literal():
    spec = tiny_spec()
    spec.automata[0].edges[0].updates = [
        ("x", BinaryOp("mod", VarRef("x"), VarRef("x")))
    ]
    assert any("modulus" in d.message for d in validate(spec))


def test_unknown_references_reported():
    spec = tiny_spec()
    spec.automata[0].edges[0].guard = BinaryOp(
        "and", VarRef("ghost"), LocRef("m", "nowhere")
    )
    spec.automata[0].edges[0].events = ["mystery"]
    messages = [d.message for d in validate(spec)]
    assert any("unknown variable 'ghost'" in m for m in messages)
    assert any("no location 'nowhere'" in m for m in messages)
    assert any("unknown event 'mystery'" in m for m in messages)


def test_supervisor_kind_gated():
    spec = tiny_spec()
    spec.automata[0].kind = "supervisor"
    assert any("supervisor" in d.message for d in validate(spec))
    assert validate(spec, allow_supervisor=True) == []


def test_enum_comparisons_typed():
    dom = EnumDomain(("red", "green"))
    spec = tiny_spec()
    spec.automata[0].variables.append(Variable("c", dom, owner="m"))
    spec.automata[0].edges[0].guard = BinaryOp("=", VarRef("c"), EnumLit("blue"))
    assert any("'blue'" in d.message for d in validate(spec))
    spec.automata[0].edges[0].guard = BinaryOp("=", VarRef("c"), EnumLit("green"))
    assert validate(spec) == []


def _chain(op, leaves):
    node = leaves[0]
    for leaf in leaves[1:]:
        node = BinaryOp(op, node, leaf)
    return node


def test_fold_visits_operands_left_to_right_before_their_operator():
    expr = BinaryOp(
        "=", UnaryOp("-", BinaryOp("+", VarRef("a"), IntLit(1))), VarRef("b")
    )
    seen = []
    fold_expr(
        expr,
        lambda node: seen.append(getattr(node, "name", getattr(node, "value", None))),
        lambda node, _: seen.append(node.op),
        lambda node, _l, _r: seen.append(node.op),
    )
    assert seen == ["a", 1, "+", "-", "b", "="]


def test_fold_has_no_depth_limit():
    # far deeper than the interpreter's recursion limit, on both sides
    leaves = [IntLit(i) for i in range(100_000)]
    count = lambda expr: fold_expr(
        expr, lambda _: 1, lambda _, n: n, lambda _, a, b: a + b
    )
    assert count(_chain("+", leaves)) == 100_000
    right = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        right = BinaryOp("+", leaf, UnaryOp("-", right))
    assert count(right) == 100_000


def test_span_is_an_immutable_value():
    span = Span("f", 1, 2, 3)
    assert span == Span(file="f", line=1, column=2, length=3)
    assert span != Span("f", 1, 2, 4)
    assert hash(span) == hash(Span("f", 1, 2, 3))
    assert len({span, Span("f", 1, 2, 3), Span()}) == 2
    assert repr(span) == "Span(file='f', line=1, column=2, length=3)"
    assert Span() == Span("<none>", 0, 0, 0)
    assert (Span().file, Span().line, Span().column, Span().length) == (
        "<none>", 0, 0, 0)
    for name in ("file", "line", "column", "length"):
        with pytest.raises(AttributeError):
            setattr(span, name, 9)
    assert str(Diagnostic("bad", span)) == "f:1:2: bad"
    assert str(Diagnostic("bad", Span())) == "bad"


def test_map_leaves_replaces_leaves_and_keeps_spans():
    span = Span("f", 1, 2, 3)
    expr = BinaryOp(
        "and", UnaryOp("not", VarRef("a"), span=span), VarRef("b"), span=span
    )
    out = map_leaves(expr, lambda n: BoolLit(True) if n == VarRef("b") else n)
    assert out == BinaryOp("and", UnaryOp("not", VarRef("a")), BoolLit(True))
    assert out.span == span and out.left.span == span


def test_fresh_name_appends_underscores_and_records_the_name():
    taken = {"a", "a_"}
    assert fresh_name("a", taken) == "a__"
    assert fresh_name("a", taken) == "a___"
    assert fresh_name("b", taken) == "b"
    assert taken == {"a", "a_", "a__", "a___", "b"}


def test_long_expressions_validate():
    spec = tiny_spec()
    edge = spec.automata[0].edges[0]
    edge.guard = BinaryOp("=", _chain("+", [VarRef("x")] * 20_000), IntLit(0))
    assert validate(spec) == []
    # diagnostics keep source order inside a long chain
    edge.guard = _chain("and", [VarRef("ghost"), IntLit(1)] * 3000)
    messages = [d.message for d in validate(spec)]
    assert messages == [
        "unknown variable 'ghost'", "operand of 'and' must be boolean",
    ] * 3000


def test_enum_literal_outside_equality_is_reported_where_it_occurs():
    dom = EnumDomain(("red", "green"))
    spec = tiny_spec()
    spec.automata[0].variables.append(Variable("c", dom, owner="m"))
    spec.automata[0].edges[0].guard = BinaryOp(
        "or",
        BinaryOp("<", EnumLit("red"), VarRef("ghost")),
        BinaryOp("=", EnumLit("green"), EnumLit("red")),
    )
    assert [d.message for d in validate(spec)] == [
        "enumeration literal 'red' cannot be typed here",
        "unknown variable 'ghost'",
        "enumeration literal 'green' cannot be typed here",
    ]


def test_conflicting_literal_positions_reported():
    spec = tiny_spec()
    spec.automata[0].variables += [
        Variable("a", EnumDomain(("p", "q")), owner="m"),
        Variable("b", EnumDomain(("q", "p")), owner="m"),
    ]
    assert any("different positions" in d.message for d in validate(spec))


def test_initial_value_outside_domain():
    spec = tiny_spec()
    spec.automata[0].variables[0].initial = (7,)
    assert any("outside the domain" in d.message for d in validate(spec))


@pytest.mark.parametrize(
    "expr,expected",
    [
        (BinaryOp("+", VarRef("x"), IntLit(2)), 5),
        (BinaryOp("mod", VarRef("x"), IntLit(2)), 1),
        (UnaryOp("-", VarRef("x")), -3),
        (BinaryOp("<", VarRef("x"), IntLit(4)), True),
        (BinaryOp("and", VarRef("b"), BoolLit(False)), False),
        (UnaryOp("not", VarRef("b")), False),
        (LocRef("m", "on"), True),
        (BinaryOp("=", VarRef("c"), EnumLit("green")), True),
    ],
)
def test_eval_expr(expr, expected):
    values = {"x": 3, "b": True, "c": 1}
    locations = {"m": "on"}
    codes = {"red": 0, "green": 1}
    assert eval_expr(expr, values, locations, codes) == expected


def test_literal_codes_follow_declaration_index():
    spec = tiny_spec()
    spec.automata[0].variables.append(
        Variable("c", EnumDomain(("red", "green", "blue")), owner="m")
    )
    assert literal_codes(spec) == {"red": 0, "green": 1, "blue": 2}


def test_domain_sizes():
    assert domain_size(BoolDomain()) == 2
    assert domain_size(IntDomain(3, 9)) == 7
    assert domain_size(EnumDomain(("a", "b", "c"))) == 3


def test_stats_of_shipped_producer_consumer(models_dir):
    spec = parse_file(models_dir / "producer_consumer.efa")
    assert validate(spec) == []
    stats = model_stats(spec)
    assert stats.sigma_c == 5 and stats.sigma_u == 2
    assert stats.Ap == 2 and stats.Ar == 0
    assert stats.lp == 9 and stats.lr == 0
    assert stats.ep == 10 and stats.er == 0
    assert stats.gp == 5 and stats.ap == 5
    assert stats.ip == 2 and stats.mp == 2
    assert stats.vn == 3 and stats.vv == 21
    assert stats.ic == 0 and stats.mc == 0
    assert (stats.tps, stats.trs, stats.tpe, stats.tre) == (0, 0, 0, 0)


def test_stats_count_multi_event_edges_per_event():
    spec = tiny_spec()
    spec.automata[0].edges[0].events = ["go", "stop"]
    spec.automata[0].edges[0].guard = BinaryOp("<", VarRef("x"), IntLit(2))
    stats = model_stats(spec)
    assert stats.ep == 3  # two-event edge counts twice, plus the stop edge
    assert stats.gp == 2
    assert stats.ap == 2
