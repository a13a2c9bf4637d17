"""Supervisor emission: guard lowering fidelity, model shape, closed loop."""

import random

import pytest

from efasynth.bdd import NodeRef
from efasynth.emit import emit, lower_bdd_to_expr
from efasynth.encode import build_symbolic
from efasynth.model import (
    BinaryOp, BoolLit, EnumLit, IntLit, LocRef, UnaryOp, VarRef, eval_expr,
    map_leaves, validate,
)
from efasynth.oracle import ExplicitOracle
from efasynth.parser import format_expr, parse_file, parse_spec, unparse
from efasynth.synthesis import SynthesisConfig, synthesize
from efasynth.transform import linearize, plantify
from efasynth.varorder import compute_order

from test_oracle import INPUT_MODEL, SE_MODEL, lin

TRUE = BoolLit(True)

# Mixed domains for the lowering tests: an integer, an enumeration, a
# boolean, and a two-location automaton whose pointer must come back out
# as location references.
MIXED = """
controllable go, flip;

plant m {
  disc int[0..5] x = 0;
  disc enum {red, green, blue} e = red;
  disc bool b = false;

  location a:
    initial; marked;
    edge go when x < 5 do x := x + 1 goto c;
  location c:
    marked;
    edge flip do b := not b goto a;
}
"""


def mixed_enc():
    model = lin(parse_spec(MIXED))
    return model, build_symbolic(model, compute_order(model, "model")).enc


def locations_of(model, values):
    out = {}
    for aut, pointer in model.pointers.items():
        names = {code: name for name, code in model.location_codes[aut].items()}
        out[aut] = names[values[pointer]]
    return out


def assert_faithful(f, expr, model, enc, oracle):
    for i in range(len(oracle.states)):
        values = oracle.values_of(i)
        want = enc.manager.evaluate(f, oracle.assignment_for(enc, i))
        got = bool(
            eval_expr(expr, values, locations_of(model, values), model.codes)
        )
        assert got == want, values


def test_lower_terminals():
    model, enc = mixed_enc()
    assert lower_bdd_to_expr(enc.manager.true, enc) == TRUE
    assert lower_bdd_to_expr(enc.manager.false, enc) == BoolLit(False)


def test_lower_single_bool_is_the_variable():
    model, enc = mixed_enc()
    f = enc.compile_pred(VarRef("b"))
    assert lower_bdd_to_expr(f, enc) == VarRef("b")
    g = enc.compile_pred(UnaryOp("not", VarRef("b")))
    assert lower_bdd_to_expr(g, enc) == UnaryOp("not", VarRef("b"))


x = VarRef("x")


@pytest.mark.parametrize("pred,want", [
    (BinaryOp("<=", x, IntLit(3)), BinaryOp("<=", x, IntLit(3))),
    (BinaryOp(">=", x, IntLit(4)), BinaryOp(">=", x, IntLit(4))),
    (BinaryOp("=", x, IntLit(2)), BinaryOp("=", x, IntLit(2))),
    (
        BinaryOp("and", BinaryOp(">=", x, IntLit(1)), BinaryOp("<=", x, IntLit(3))),
        BinaryOp("and", BinaryOp("<=", IntLit(1), x), BinaryOp("<=", x, IntLit(3))),
    ),
    (
        BinaryOp("or", BinaryOp("<=", x, IntLit(1)), BinaryOp(">=", x, IntLit(4))),
        BinaryOp("or", BinaryOp("<=", x, IntLit(1)), BinaryOp(">=", x, IntLit(4))),
    ),
])
def test_lower_collapses_intervals(pred, want):
    model, enc = mixed_enc()
    assert lower_bdd_to_expr(enc.compile_pred(pred), enc) == want


def test_lower_enum_membership():
    model, enc = mixed_enc()
    f = enc.compile_pred(BinaryOp("=", VarRef("e"), EnumLit("green")))
    assert lower_bdd_to_expr(f, enc) == BinaryOp(
        "=", VarRef("e"), EnumLit("green")
    )


def test_lower_pointer_becomes_location_reference():
    model, enc = mixed_enc()
    pointer = model.pointers["m"]
    f = enc.compile_pred(BinaryOp("=", VarRef(pointer), IntLit(0)))
    assert lower_bdd_to_expr(f, enc) == LocRef("m", "a")


def random_pred(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            BinaryOp("<=", x, IntLit(rng.randrange(6))),
            BinaryOp("=", x, IntLit(rng.randrange(6))),
            BinaryOp("=", VarRef("e"), EnumLit(rng.choice(["red", "green", "blue"]))),
            VarRef("b"),
            BinaryOp("=", x, BinaryOp("+", IntLit(rng.randrange(3)), IntLit(1))),
        ])
    op = rng.choice(["and", "or", "not"])
    if op == "not":
        return UnaryOp("not", random_pred(rng, depth - 1))
    return BinaryOp(op, random_pred(rng, depth - 1), random_pred(rng, depth - 1))


def test_lower_fidelity_on_random_predicates():
    model, enc = mixed_enc()
    oracle = ExplicitOracle(model)
    rng = random.Random(20240817)
    for _ in range(40):
        pred = random_pred(rng)
        f = enc.compile_pred(pred)
        lowered = lower_bdd_to_expr(f, enc)
        assert_faithful(f, lowered, model, enc, oracle)


WIDE = """
controllable inc;
plant p {
  disc int[0..4095] x = 0;
  location l:
    initial; marked;
    edge inc when x < 4095 do x := x + 1;
}
requirement invariant inc needs x mod 3 = 0;
"""


def test_lower_reads_cofactors_without_bdd_work():
    # the guard of 'inc' is a membership test over 4,096 values
    model = lin(parse_spec(WIDE))
    result = synthesize(model, SynthesisConfig())
    mgr = result.manager
    before = mgr.op_total, mgr.allocated_nodes
    lowered = lower_bdd_to_expr(result.event_guards["inc"], result.sym.enc)
    assert (mgr.op_total, mgr.allocated_nodes) == before
    # one equality per multiple of 3 below 4,095
    assert format_expr(lowered).count(" = ") == 1365


NARROW_GUARD = """
controllable a;
plant p {
  disc int[0..65535] x = 0;
  location l:
    initial; marked;
    edge a when x < 9 do x := x + 1;
}
requirement invariant x != 4;
"""


def test_lower_walks_each_block_once_not_each_value(monkeypatch):
    # one walk of the 16 bits of x finds the few codes that lead anywhere,
    # where a read per value made a handle for each of the 65,536 codes
    model = lin(parse_spec(NARROW_GUARD))
    result = synthesize(model, SynthesisConfig())
    made = []
    init = NodeRef.__init__

    def counting_init(self, *args):
        made.append(args[1])
        init(self, *args)

    monkeypatch.setattr(NodeRef, "__init__", counting_init)
    lowered = lower_bdd_to_expr(result.event_guards["a"], result.sym.enc)
    monkeypatch.undo()
    assert len(made) <= 30
    assert format_expr(lowered) == "x <= 2 or 4 <= x and x <= 8"


# ----------------------------------------------------------------------
# emission


def pipeline(text_or_path, config=None, models_dir=None):
    if models_dir is not None:
        spec = parse_file(models_dir / text_or_path)
    else:
        spec = parse_spec(text_or_path)
    plant = plantify(spec)
    model, diags = linearize(plant)
    assert not diags
    result = synthesize(model, config or SynthesisConfig())
    return plant, model, result


REQ_AUTOMATON = """
controllable grant;
uncontrollable release;

plant lock {
  disc int[0..3] n = 0;

  location free:
    initial; marked;
    edge grant when n < 3 do n := n + 1;
    edge release when n > 0 do n := n - 1;
}

requirement limiter {
  location lo:
    initial; marked;
    edge grant when n < 2;
}
"""


def test_emit_shape_and_alphabet(models_dir):
    plant, model, result = pipeline(
        "producer_consumer.efa", models_dir=models_dir
    )
    out = emit(plant, result)
    sup = out.automata[-1]
    assert sup.kind == "supervisor"
    assert sup.name == "sup"
    controllable = [ev.name for ev in plant.events if ev.controllable]
    assert sup.alphabet == controllable
    assert len(sup.locations) == 1
    assert sup.locations[0].initial is True
    assert sup.locations[0].marked is True
    assert [e.events for e in sup.edges] == [[name] for name in controllable]
    for edge in sup.edges:
        assert edge.updates == [] and edge.target is None
    # the other automata keep their identity
    assert [a.name for a in out.automata[:-1]] == [a.name for a in plant.automata]


def test_emit_relabels_plantified_requirements():
    plant, model, result = pipeline(REQ_AUTOMATON)
    on = emit(plant, result, simplify=True)
    off = emit(plant, result, simplify=False)
    for out in (on, off):
        kinds = {aut.name: aut.kind for aut in out.automata}
        assert kinds["lock"] == "plant"
        assert kinds["limiter"] == "supervisor"
    # plantification invariants survive only with simplification
    assert {inv.side for inv in on.invariants} == {"supervisor"}
    assert off.invariants == []


def test_emit_keeps_plant_invariants():
    plant, model, result = pipeline(SE_MODEL + "\nplant invariant x <= 7;\n")
    for simplify in (True, False):
        out = emit(plant, result, simplify=simplify)
        sides = [inv.side for inv in out.invariants]
        assert sides.count("plant") == 1
        assert ("requirement" in sides) is False
        assert ("supervisor" in sides) is simplify


@pytest.mark.parametrize("simplify", [True, False])
def test_emit_round_trips_through_parser(models_dir, simplify):
    plant, model, result = pipeline(
        "producer_consumer.efa", models_dir=models_dir
    )
    text = unparse(emit(plant, result, simplify=simplify))
    back = parse_spec(text)
    assert validate(back, allow_supervisor=True) == []
    assert validate(back) != []  # supervisors are tool output, not input
    assert unparse(back) == text


def test_emit_raw_guards_match_oracle(models_dir):
    plant, model, result = pipeline(
        "producer_consumer.efa", models_dir=models_dir
    )
    oracle = ExplicitOracle(model)
    out = emit(plant, result, simplify=False)
    sup = out.automata[-1]
    enc = result.sym.enc
    for edge in sup.edges:
        event = edge.events[0]
        expr = edge.guard if edge.guard is not None else TRUE
        allowed = oracle.event_guard_states(event)
        for i in range(len(oracle.states)):
            values = oracle.values_of(i)
            got = bool(eval_expr(
                expr, values, locations_of(model, values), model.codes
            ))
            assert got == (i in allowed), (event, values)


def test_emit_simplified_guards_agree_inside_assumption(models_dir):
    plant, model, result = pipeline(
        "producer_consumer.efa", models_dir=models_dir
    )
    oracle = ExplicitOracle(model)
    sym = result.sym
    mgr = sym.manager
    enc = sym.enc
    out = emit(plant, result, simplify=True)
    for edge in out.automata[-1].edges:
        event = edge.events[0]
        expr = edge.guard if edge.guard is not None else TRUE
        # the edge guards carry the plant guards and the requirement
        # conditions of the event
        occurs = mgr.false
        for base in sym.edges:
            if base.event == event:
                occurs = occurs | base.guard
        assumption = occurs & sym.pp & result.controlled
        raw = result.event_guards[event]
        for i in range(len(oracle.states)):
            assignment = oracle.assignment_for(enc, i)
            if not mgr.evaluate(assumption, assignment):
                continue
            values = oracle.values_of(i)
            got = bool(eval_expr(
                expr, values, locations_of(model, values), model.codes
            ))
            assert got == mgr.evaluate(raw, assignment), (event, values)


# A controllable event whose requirement conditions come from two sources,
# a two-location requirement automaton (one 'disables' per location) and a
# 'needs' invariant, over two plant edges with different guards.  Both
# domains fill their encodings, so a lowered guard compiles back to the
# same diagram.
TWO_SOURCES = """
controllable go;
uncontrollable drop;

plant p {
  disc int[0..7] x = 0;

  location l:
    initial; marked;
    edge go when x < 4 do x := x + 3;
    edge go when x >= 4 do x := x - 4;
    edge drop when x = 6 do x := 1;
}

requirement r {
  location lo:
    initial; marked;
    edge go when x != 2 goto hi;
  location hi:
    marked;
    edge go when x < 5 goto lo;
}

requirement invariant go needs x != 0 or r.lo;
requirement invariant x != 1;
"""


@pytest.mark.parametrize("simplify,guard", [
    (True, "x = 0 or x = 2 or x = 4 or x >= 6"),
    (False, "(x = 0 or x >= 6) and r.lo or (x = 1 or x = 4) "
            "or x = 2 and r.hi"),
])
def test_emit_two_requirement_sources_over_two_edges(simplify, guard):
    plant, model, result = pipeline(TWO_SOURCES)
    sym = result.sym
    mgr = sym.manager
    conditions = [
        inv.kind for inv in plant.invariants
        if inv.side == "requirement" and inv.event == "go"
    ]
    assert sorted(conditions) == ["disables", "disables", "needs"]
    assert len({e.guard_plant for e in sym.edges if e.event == "go"}) > 1

    out = emit(plant, result, simplify=simplify)
    (edge,) = out.automata[-1].edges
    assert format_expr(edge.guard) == guard
    assert [format_expr(p) for p in out.init_preds] == (
        [] if simplify else ["x = 0 and r.lo"]
    )

    want = result.event_guards["go"]
    if simplify:
        occurs = mgr.false
        for base in sym.edges:
            if base.event == "go":
                occurs = occurs | base.guard
        want = mgr.restrict(want, occurs & sym.pp & result.controlled)

    def locate(node):
        if isinstance(node, LocRef):
            pointer = VarRef(model.pointers[node.automaton])
            code = model.location_codes[node.automaton][node.location]
            return BinaryOp("=", pointer, IntLit(code))
        return node

    assert sym.enc.compile_pred(map_leaves(edge.guard, locate)) == want


@pytest.mark.parametrize("simplify", [True, False])
@pytest.mark.parametrize("source", ["producer_consumer.efa", SE_MODEL, INPUT_MODEL])
def test_emit_closed_loop_recovers_controlled_behavior(
    models_dir, source, simplify
):
    if source.endswith(".efa"):
        plant, model, result = pipeline(source, models_dir=models_dir)
    else:
        plant, model, result = pipeline(source)
    oracle = ExplicitOracle(model)
    out = emit(plant, result, simplify=simplify)
    back = parse_spec(unparse(out))
    assert validate(back, allow_supervisor=True) == []
    closed, diags = linearize(plantify(back))
    assert not diags
    closed_oracle = ExplicitOracle(closed)
    assert closed_oracle.names == oracle.names
    want = {oracle.states[i] for i in oracle.controlled_reachable}
    got = {closed_oracle.states[i] for i in closed_oracle.controlled_reachable}
    assert got == want
    # re-synthesis restricts nothing further
    redo = synthesize(closed, SynthesisConfig())
    assert redo.metrics["controlled_states"] == len(want)


UNRESTRICTED = """
controllable step;

plant counter {
  disc int[0..3] x = 0;

  location l:
    initial; marked;
    edge step when x < 3 do x := x + 1;
}
"""


def test_unrestrictive_synthesis_emits_true_guards():
    plant, model, result = pipeline(UNRESTRICTED)
    out = emit(plant, result, simplify=True)
    assert all(edge.guard is None for edge in out.automata[-1].edges)
    assert out.init_preds == []


def test_emit_refuses_empty_supervisor():
    text = """
uncontrollable tick;

plant clock {
  disc int[0..3] x = 0;

  location l:
    initial; marked;
    edge tick when x < 3 do x := x + 1;
}

requirement invariant x <= 2;
"""
    plant, model, result = pipeline(text)
    assert not result.nonempty
    with pytest.raises(ValueError):
        emit(plant, result)


def test_supervisor_name_avoids_collision():
    text = UNRESTRICTED.replace("plant counter", "plant sup")
    plant, model, result = pipeline(text)
    out = emit(plant, result)
    assert out.automata[-1].name == "sup_"


@pytest.mark.parametrize("simplify", [True, False])
def test_emitted_text_is_deterministic(models_dir, simplify):
    texts = []
    for _ in range(2):
        plant, model, result = pipeline(
            "producer_consumer.efa", models_dir=models_dir
        )
        texts.append(unparse(emit(plant, result, simplify=simplify)))
    assert texts[0] == texts[1]


def test_emission_counts_the_same_work_however_synthesis_ran(models_dir):
    # emission runs on an empty computed cache, so the same emitted text
    # costs the same operations whatever synthesis left cached
    for path in sorted(models_dir.glob("*.efa")):
        plant = plantify(parse_file(path))
        model, _ = linearize(plant)
        counts: dict[str, set[int]] = {}
        for early_stop in (False, True):
            for edge_apply in ("naive", "compound"):
                for granularity in ("edge", "event"):
                    result = synthesize(model, SynthesisConfig(
                        early_stop=early_stop, edge_apply=edge_apply,
                        granularity=granularity))
                    before = result.manager.op_total
                    text = unparse(emit(plant, result))
                    counts.setdefault(text, set()).add(
                        result.manager.op_total - before)
        assert all(len(c) == 1 for c in counts.values()), (
            path.name, list(counts.values()))
