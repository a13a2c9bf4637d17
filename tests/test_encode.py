"""Bit-vector compilation and the staged symbolic build."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from efasynth.bdd import BddError, BddManager
from efasynth.encode import (
    Encoding, SymEdge, build_symbolic, bv_add, bv_const, bv_eq, bv_lt,
    bv_mod, bv_sub, compile_edges,
)
from efasynth.model import BinaryOp, BoolLit, IntLit, UnaryOp, VarRef, eval_expr
from efasynth.parser import parse_file, parse_spec
from efasynth.synthesis import FixedPointEngine, SynthesisConfig, relations
from efasynth.transform import linearize, plantify


def decode(vec):
    """Value of a constant vector of terminal nodes, which lies in its
    interval."""
    value = sum(1 << i for i, b in enumerate(vec.bits) if b.is_true)
    if vec.lo < 0 and vec.bits[-1].is_true:
        value -= 1 << len(vec.bits)
    assert vec.lo <= value <= vec.hi
    return value


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_const_vector_arithmetic(a, b):
    mgr = BddManager()
    va, vb = bv_const(mgr, a), bv_const(mgr, b)
    assert decode(va) == a and decode(vb) == b
    assert decode(bv_add(mgr, va, vb)) == a + b
    assert decode(bv_sub(mgr, va, vb)) == a - b
    assert bv_eq(mgr, va, vb).is_true == (a == b)
    assert bv_lt(mgr, va, vb).is_true == (a < b)


@given(st.integers(-300, 300), st.integers(1, 17))
def test_const_vector_modulo(a, m):
    mgr = BddManager()
    assert decode(bv_mod(mgr, bv_const(mgr, a), m)) == a % m


def lin(text):
    model, diags = linearize(plantify(parse_spec(text)))
    assert diags == []
    return model


EVAL_MODEL = """
controllable a;
plant m {{
  disc int[0..12] x;
  disc int[3..9] y;
  disc bool b;
  disc enum{{red, green, blue}} c;
  location l: initial; marked; edge a;
}}
initial {0};
"""


def encoded_values(enc, name):
    """The value of every code of ``name``'s block, also past its domain."""
    sym = enc.by_name[name]
    return range(sym.lo, sym.lo + (1 << sym.width))


def bits_for(enc, name, value):
    sym = enc.by_name[name]
    code = value - sym.lo
    return {lvl: code >> bit & 1 for bit, lvl in enumerate(sym.levels)}


def assert_matches_evaluation(enc, expr, pred, names):
    """``pred`` agrees with ``eval_expr`` on every code of ``names``."""
    model = enc.model
    for point in itertools.product(*(encoded_values(enc, n) for n in names)):
        values = dict(zip(names, point))
        assignment = {}
        for name, value in values.items():
            assignment.update(bits_for(enc, name, value))
        want = eval_expr(expr, values, {}, model.codes)
        assert enc.manager.evaluate(pred, assignment) == want, values


@pytest.mark.parametrize(
    "text",
    [
        "x - y < 2",
        "(x + y) mod 5 = 2",
        "(x - 12) mod 5 = (y - 3) mod 4",
        "not (b and x = 7) or y >= 8",
        "c != red and (c = green or b)",
        "-x + y > -3",
        "x mod 8 <= y mod 4 + 2",
        "(x + 100) mod 7 = 3",
        "y - x - x < -10",
        "b = (x = y)",
        "c = blue or c = red",
        "x < 16 and y <= 10 and x + y != 26",
        "x mod 16 = x and (y - 20) mod 3 = (y + 1) mod 3",
        "x = y - 11 or x - 16 = y - 11",  # [0, 15] against [-8, -1]
    ],
)
def test_compiled_predicates_match_evaluation(text):
    # every encoded code: x codes 13 to 15 and y value 10 lie outside the
    # declared domains, and c has a fourth code
    model = lin(EVAL_MODEL.format(text))
    enc = Encoding(model, list(range(len(model.variables))))
    assert list(encoded_values(enc, "x")) == list(range(16))
    assert list(encoded_values(enc, "y")) == list(range(3, 11))
    assert_matches_evaluation(
        enc, model.initial, enc.compile_pred(model.initial), "xybc",
    )


_ints = st.recursive(
    st.one_of(st.sampled_from("xy").map(VarRef),
              st.integers(-20, 20).map(IntLit)),
    lambda kids: st.one_of(
        kids.map(lambda e: UnaryOp("-", e)),
        st.builds(BinaryOp, st.sampled_from("+-"), kids, kids),
        st.builds(lambda e, m: BinaryOp("mod", e, IntLit(m)),
                  kids, st.integers(1, 9)),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), _ints, _ints)
def test_interval_arithmetic_matches_evaluation(op, left, right):
    model = lin(EVAL_MODEL.format("true"))
    enc = Encoding(model, list(range(len(model.variables))))
    expr = BinaryOp(op, left, right)
    assert_matches_evaluation(enc, expr, enc.compile_pred(expr), "xy")


def test_long_guards_compile_like_short_ones():
    # 7,000 disjuncts; equality picks its kind per operand value
    parity = " or ".join(f"x = {v} and b = (c = red)" for v in range(0, 13, 2))
    model = lin(EVAL_MODEL.format(" or ".join([parity] * 1000)))
    enc = Encoding(model, list(range(len(model.variables))))
    short = "x mod 2 = 0 and x <= 12 and b = (c = red)"
    short = lin(EVAL_MODEL.format(short)).initial
    assert enc.compile_pred(model.initial) == enc.compile_pred(short)


REGROUP_MODEL = """
controllable a;
plant m {
  disc bool p; disc bool q; disc bool r;
  disc int[0..5] x;
  disc int[2..6] y;
  location l: initial; marked; edge a;
}
"""

_atoms = st.one_of(
    st.sampled_from("pqr").map(VarRef),
    st.booleans().map(BoolLit),
    st.builds(
        lambda name, op, k: BinaryOp(op, VarRef(name), IntLit(k)),
        st.sampled_from("xy"),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(0, 7),
    ),
)


def _nest(op, parts, rightmost):
    """``parts`` joined by ``op``, grouped from the left or from the right."""
    if rightmost:
        return functools.reduce(lambda r, e: BinaryOp(op, e, r), parts[::-1])
    return functools.reduce(lambda l, e: BinaryOp(op, l, e), parts)


_trees = st.recursive(_atoms, lambda kids: st.one_of(
    kids.map(lambda e: UnaryOp("not", e)),
    st.builds(BinaryOp, st.sampled_from(["=", "!="]), kids, kids),
    st.builds(_nest, st.sampled_from(["and", "or"]),
              st.lists(kids, min_size=2, max_size=5), st.booleans()),
), max_leaves=40)


def _is_atom(expr):
    if isinstance(expr, BinaryOp):
        return isinstance(expr.left, VarRef) and expr.left.name in ("x", "y")
    return not isinstance(expr, UnaryOp)


def left_to_right(enc, expr):
    """The reference compilation: one binary apply per operator, in source
    order, over atoms compiled on their own."""
    mgr = enc.manager
    if _is_atom(expr):
        return enc.compile_pred(expr)
    if isinstance(expr, UnaryOp):
        return mgr.negate(left_to_right(enc, expr.operand))
    a, b = left_to_right(enc, expr.left), left_to_right(enc, expr.right)
    if expr.op in ("and", "or"):
        return mgr.apply(expr.op, a, b)
    same = mgr.apply("biimp", a, b)
    return same if expr.op == "=" else mgr.negate(same)


@given(_trees, st.permutations(range(5)))
def test_regrouped_chains_compile_to_the_left_to_right_function(expr, order):
    # canonicity: equal functions are the same node of one manager
    enc = Encoding(lin(REGROUP_MODEL), order)
    assert enc.compile_pred(expr) == left_to_right(enc, expr)


def test_chain_encodes_in_linear_operations():
    # n booleans, e_i sets b_i once b_{i-1} holds.  Combined deepest first,
    # each conjunct of the initial predicate costs one operation; a
    # left-to-right conjunction costs n(n+1)/2 and recurses n levels deep.
    n = 2000
    lines = ["controllable " + ", ".join(f"e_{i}" for i in range(n)) + ";"]
    lines += ["plant chain {"]
    lines += [f"  disc bool b_{i} = false;" for i in range(n)]
    lines += ["  location s: initial; marked;", "  edge e_0 do b_0 := true;"]
    lines += [f"  edge e_{i} when b_{i - 1} do b_{i} := true;"
              for i in range(1, n)]
    model = lin("\n".join(lines + ["}"]))
    sym = build_symbolic(model, list(range(n)))
    # no event has two edges, and target enforcement built each edge's
    # guard & update already, so the engine's relations cost nothing
    FixedPointEngine(sym, SynthesisConfig(granularity="event")).close()
    assert sym.manager.op_total == 5 * n - 3
    assert sym.manager.size(sym.initial) == n


def test_edge_updates_combine_in_linear_operations():
    # One edge assigns n booleans.  Conjoined deepest first, each update
    # costs one operation; left to right, n(n-1)/2 and n levels of
    # recursion.
    n = 2000
    lines = ["controllable e;", "plant p {"]
    lines += [f"  disc bool b_{i} = false;" for i in range(n)]
    lines += ["  location s: initial; marked;",
              "  edge e do " + ", ".join(f"b_{i} := true" for i in range(n))
              + ";", "}"]
    enc = Encoding(lin("\n".join(lines)), list(range(n)))
    (edge,) = compile_edges(enc)
    assert enc.manager.op_total == n - 1
    assert enc.manager.size(edge.update) == n
    assert edge.error.is_false


@pytest.mark.parametrize("rhs,decided", [
    ("5", True),  # a constant: every pointer assignment is one
    ("y", True),  # values 3 to 10 lie inside x's codes 0 to 15
    ("y - 3 + x mod 3", True),
    ("x + 3", False),  # may pass the top code
    ("x - 1", False),  # may fall below code 0
])
def test_decided_range_errors_cost_no_operations(rhs, decided):
    model = lin(ASSIGN_MODEL.format(rhs))
    (edge,) = compile_edges(Encoding(model, [0, 1]))
    assert edge.error.is_false == decided
    if decided:
        # the edge costs what its update alone costs
        enc = Encoding(model, [0, 1])
        (rhs_expr,) = [e for _, e in model.edges[0].updates]
        target = enc.code_bits("x", primed=True)
        bv_eq(enc.manager, target, enc.compile_pred(rhs_expr))
        assert edge.update.manager.op_total == enc.manager.op_total


@pytest.mark.parametrize(
    "rhs", ["x + 3", "x - 1", "y - 10", "y - 3 - x", "20", "-1", "x mod 5 + y"],
)
def test_assignments_match_evaluation(rhs):
    # on every code of x and y, and every next code of x: the update holds
    # where x' is the value, and the error where no code of x holds it
    model = lin(ASSIGN_MODEL.format(rhs))
    enc = Encoding(model, [0, 1])
    (edge,) = compile_edges(enc)
    (expr,) = [e for _, e in model.edges[0].updates]
    levels = enc.by_name["x"].levels
    for x, y in itertools.product(range(16), range(3, 11)):
        assignment = bits_for(enc, "x", x) | bits_for(enc, "y", y)
        value = eval_expr(expr, {"x": x, "y": y}, {}, model.codes)
        assert enc.manager.evaluate(edge.error, assignment) == (
            not 0 <= value <= 15
        ), (x, y)
        for nxt in range(16):
            primed = {lvl + 1: nxt >> bit & 1 for bit, lvl in enumerate(levels)}
            assert enc.manager.evaluate(edge.update, assignment | primed) == (
                nxt == value
            ), (x, y, nxt)


ASSIGN_MODEL = """
controllable a;
plant m {{
  disc int[0..12] x;
  disc int[3..9] y;
  location l: initial; marked; edge a do x := {0};
}}
"""


def test_a_long_sum_stays_as_wide_as_its_interval():
    # x + x + ... + x over int[0..3]: each sum is as wide as its interval
    # [0, 3k], where widening by one bit per addition took 13.6 s at this
    # length
    n = 3000
    model = lin(ASSIGN_MODEL.format(0).replace(
        "edge a", "edge a when " + " + ".join(["x"] * n) + f" <= {3 * n - 1}"
    ).replace("int[0..12] x", "int[0..3] x"))
    enc = Encoding(model, [0, 1])
    total = enc.compile_pred(model.edges[0].guard.left)
    assert (total.lo, total.hi) == (0, 3 * n)
    assert len(total.bits) <= (3 * n).bit_length() + 1
    below = enc.compile_pred(BinaryOp("<", VarRef("x"), IntLit(3)))
    assert enc.compile_pred(model.edges[0].guard) == below


def test_variable_layout_of_producer_consumer(models_dir):
    model, _ = linearize(plantify(parse_file(models_dir / "producer_consumer.efa")))
    enc = Encoding(model, list(range(5)))
    widths = {s.var.name: s.width for s in enc.symvars}
    assert widths == {
        "producer_lp": 3, "v": 1, "x": 3, "consumer_lp": 2, "y": 4,
    }
    # every bit takes a level pair, and no more levels are allocated
    levels = 2 * (3 + 1 + 3 + 2 + 4)
    enc.manager.var(levels - 1)
    with pytest.raises(BddError, match="out of range"):
        enc.manager.var(levels)
    # interleaved: each bit's next-state partner is directly below it
    assert enc.by_name["x"].levels == [8, 10, 12]


def test_in_domain_counts(models_dir):
    model = lin(EVAL_MODEL.format("true"))
    enc = Encoding(model, list(range(len(model.variables))))
    x = enc.by_name["x"]
    assert enc.manager.sat_count(enc.in_domain("x"), x.levels) == 13
    y = enc.by_name["y"]
    assert enc.manager.sat_count(enc.in_domain("y"), y.levels) == 7
    assert enc.in_domain("b").is_true  # boolean fills its encoded range


def test_offset_domains():
    model = lin(EVAL_MODEL.format("y = 9"))
    enc = Encoding(model, list(range(len(model.variables))))
    pred = enc.compile_pred(model.initial)
    assert enc.manager.evaluate(pred, bits_for(enc, "y", 9))
    assert not enc.manager.evaluate(pred, bits_for(enc, "y", 8))
    below = lin(EVAL_MODEL.format("y = 2"))
    enc2 = Encoding(below, list(range(len(below.variables))))
    assert enc2.compile_pred(below.initial).is_false


def test_compiled_edge_semantics(models_dir):
    model, _ = linearize(plantify(parse_file(models_dir / "producer_consumer.efa")))
    enc = Encoding(model, list(range(5)))
    increase = compile_edges(enc)[1]
    assert increase.event == "increase" and not increase.controllable
    assert increase.assigned == frozenset({"x"})
    for l1, x in itertools.product(range(8), range(8)):
        assignment = bits_for(enc, "producer_lp", l1) | bits_for(enc, "x", x)
        assert enc.manager.evaluate(increase.guard, assignment) == (
            l1 == 1 and x < 5
        )
        # the error predicate is overflow of the encoded range, not the domain
        assert enc.manager.evaluate(increase.error, bits_for(enc, "x", x)) == (
            x + 1 > 7
        )
    for x, nxt in itertools.product(range(8), range(8)):
        assignment = bits_for(enc, "x", x)
        assignment |= {
            lvl + 1: nxt >> bit & 1
            for bit, lvl in enumerate(enc.by_name["x"].levels)
        }
        assert enc.manager.evaluate(increase.update, assignment) == (
            nxt == x + 1
        ), (x, nxt)


def test_target_enforcement_modes_agree_modulo_invariant(models_dir):
    spec = parse_file(models_dir / "producer_consumer.efa")
    model, _ = linearize(plantify(spec))
    order = list(range(5))
    by_impl = build_symbolic(model, order, plant_inv="implication")
    by_restr = build_symbolic(model, order, plant_inv="restrict")
    levels = by_impl.enc.state_levels
    assert levels == by_restr.enc.state_levels
    # same admitted states wherever the plant invariant holds
    for a, b in zip(by_impl.edges, by_restr.edges):
        for point in itertools.product((0, 1), repeat=len(levels)):
            assignment = dict(zip(levels, point))
            if not by_impl.manager.evaluate(by_impl.pp, assignment):
                continue
            assert by_impl.manager.evaluate(a.guard, assignment) == (
                by_restr.manager.evaluate(b.guard, assignment)
            ), a.event


def test_successors_stay_inside_domains(models_dir):
    spec = parse_file(models_dir / "producer_consumer.efa")
    model, _ = linearize(plantify(spec))
    sym = build_symbolic(model, list(range(5)))
    mgr = sym.manager
    for edge in sym.edges:
        t = edge.guard & edge.update
        # sources that can leave pp: relprev against the complement
        bad = mgr.relprev(mgr.negate(sym.pp), t)
        assert (bad & sym.pp).is_false or edge.is_input, edge.event


def test_input_variable_edge():
    model = lin(
        """
        controllable a;
        input int[0..2] sensor;
        plant m {
          disc bool seen;
          location l: initial; marked;
          edge a when sensor = 2 do seen := true;
        }
        """
    )
    sym = build_symbolic(model, list(range(len(model.variables))))
    (edge,) = [e for e in sym.edges if e.is_input]
    assert edge.event == "input_sensor" and not edge.controllable
    assert edge.guard.is_true and edge.assigned == frozenset({"sensor"})
    enc = sym.enc
    for cur, nxt in itertools.product(range(4), range(4)):
        assignment = bits_for(enc, "sensor", cur)
        assignment |= {
            lvl + 1: nxt >> bit & 1
            for bit, lvl in enumerate(enc.by_name["sensor"].levels)
        }
        want = cur != nxt and nxt <= 2
        assert enc.manager.evaluate(edge.update, assignment) == want, (cur, nxt)


def test_event_names_for_inputs_avoid_clashes():
    model = lin(
        """
        controllable input_sensor;
        input bool sensor;
        plant m {
          location l: initial; marked; edge input_sensor when sensor;
        }
        """
    )
    sym = build_symbolic(model, list(range(len(model.variables))))
    names = [name for name, _ in sym.events]
    assert names == ["input_sensor", "input_sensor_"]


MERGE_VARS = """
controllable e;
plant m {
  disc int[0..7] x;
  disc int[0..7] y;
  disc int[0..7] z;
  location l: initial; marked; edge e;
}
"""


def same_event_edges(enc, lo, hi, rhs_y, rhs_z):
    """Two edges of event ``e``: ``x <= lo`` assigning ``y := rhs_y`` and
    ``x >= hi`` assigning ``z := rhs_z``."""
    mgr = enc.manager
    g1 = enc.compile_pred(BinaryOp("<=", VarRef("x"), IntLit(lo)))
    g2 = enc.compile_pred(BinaryOp(">=", VarRef("x"), IntLit(hi)))
    u1, _ = enc.assignment("y", rhs_y)
    u2, _ = enc.assignment("z", rhs_z)
    return [
        SymEdge("e", True, g1, mgr.false, u1, frozenset({"y"}), guard_plant=g1),
        SymEdge("e", True, g2, mgr.false, u2, frozenset({"z"}), guard_plant=g2),
    ]


def merge_example_edges(enc):
    """Two same-event edges with disjoint update targets, guards x<=4/x>=4."""
    return same_event_edges(
        enc, 4, 4, BinaryOp("+", VarRef("y"), IntLit(1)),
        BinaryOp("+", VarRef("z"), IntLit(1)),
    )


def gapped_example_edges(enc):
    """Two same-event edges, y := y - 1 and z := x, whose guards x<=2/x>=5
    leave x = 3, 4 disabled."""
    return same_event_edges(
        enc, 2, 5, BinaryOp("-", VarRef("y"), IntLit(1)), VarRef("x"),
    )


def test_event_merge_matches_documented_construction():
    model = lin(MERGE_VARS)
    enc = Encoding(model, [0, 1, 2])
    e1, e2 = merge_example_edges(enc)
    (merged,) = relations(enc, [("e", True)], [e1, e2], per_event=True)
    assert (merged.event, merged.controllable) == ("e", True)
    assert merged.assigned == frozenset({"y", "z"})
    want = (e1.guard & e1.update & enc.frame("z")) | (
        e2.guard & e2.update & enc.frame("y")
    )
    assert merged.rel == want


def test_merged_edge_carries_only_its_relation():
    # Guards x <= 2 and x >= 5 leave x = 3, 4 disabled, so the merged
    # relation must carry each branch's guard in itself: it allows no step
    # from a state that neither guard enables.
    model = lin(MERGE_VARS)
    enc = Encoding(model, [0, 1, 2])
    mgr = enc.manager
    e1, e2 = gapped_example_edges(enc)
    g1, u1 = e1.guard, e1.update
    g2, u2 = e2.guard, e2.update
    (merged,) = relations(enc, [("e", True)], [e1, e2], per_event=True)
    assert (merged.rel & ~(g1 | g2)).is_false
    p = enc.domain_predicate()
    branches = mgr.relnext(p, g1 & u1) | mgr.relnext(p, g2 & u2)
    assert not branches.is_false
    assert mgr.relnext(p, merged.rel, assigned=merged.levels) == branches


def test_merged_relation_preserves_images():
    model = lin(MERGE_VARS)
    enc = Encoding(model, [0, 1, 2])
    mgr = enc.manager
    e1, e2 = merge_example_edges(enc)
    g1, u1 = e1.guard, e1.update
    g2, u2 = e2.guard, e2.update
    (merged,) = relations(enc, [("e", True)], [e1, e2], per_event=True)
    # a concrete state: x=4, y=1, z=5 (both branches enabled)
    point = mgr.true
    for name, value in (("x", 4), ("y", 1), ("z", 5)):
        for bit, lvl in enumerate(enc.by_name[name].levels):
            lit = mgr.var(lvl) if value >> bit & 1 else ~mgr.var(lvl)
            point = point & lit
    separate = mgr.relnext(point, g1 & u1) | mgr.relnext(point, g2 & u2)
    together = mgr.relnext(point, merged.rel, assigned=merged.levels)
    assert separate == together
    # and the image is exactly {(4,2,5), (4,1,6)}
    assert mgr.sat_count(separate, enc.state_levels) == 2
