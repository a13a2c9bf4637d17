"""Explicit-state oracle tests plus agreement with the symbolic encoding."""

import itertools

import pytest

from efasynth.encode import build_symbolic
from efasynth.model import IntDomain, domain_size, eval_expr
from efasynth.oracle import ExplicitOracle, UniverseTooLarge
from efasynth.parser import parse_file, parse_spec
from efasynth.transform import linearize, plantify
from efasynth.varorder import compute_order


def lin(spec):
    model, diags = linearize(plantify(spec))
    assert not diags
    return model


def point(mgr, assignment):
    p = mgr.true
    for lvl, val in assignment.items():
        p = p & (mgr.var(lvl) if val else mgr.nvar(lvl))
    return p


def agree_on_universe(oracle, enc, bdd, members):
    """The predicate holds exactly on the given oracle state set."""
    for i in range(len(oracle.states)):
        got = bdd.manager.evaluate(bdd, oracle.assignment_for(enc, i))
        assert got == (i in members), oracle.values_of(i)


RANGE_TRAP = """
uncontrollable bump;
controllable step;

plant p {
  disc int[0..5] x = 0;

  location a:
    initial; marked;
    edge step when x < 5 do x := x + 1;
    edge bump when x >= 3 do x := x + 3;
}
"""

SE_MODEL = """
controllable inc;
uncontrollable drop;

plant p {
  disc int[0..7] x = 0;

  location a:
    initial; marked;
    edge inc when x < 7 do x := x + 1;
    edge drop when x > 0 do x := x - 1;
}

requirement invariant inc needs x < 5;
requirement invariant x > 3 disables drop;
"""

INPUT_MODEL = """
controllable go;
input int[0..2] sensor;

plant p {
  disc int[0..3] x = 0;

  location a:
    initial; marked;
    edge go when sensor = 2 and x < 3 do x := x + 1;
}
"""


# ----------------------------------------------------------------------
# pure oracle behavior


def test_range_trap_oracle_sets():
    oracle = ExplicitOracle(lin(parse_spec(RANGE_TRAP)))
    # single variable, universe enumerated in domain order
    assert len(oracle.states) == 6
    assert [s[0] for s in oracle.states] == [0, 1, 2, 3, 4, 5]
    # bump from 5 overflows the 3-bit encoding and cannot be prevented
    assert oracle.forbidden == {5}
    # edges follow event declaration order: bump first, then step
    bump = oracle.edges[0]
    assert bump.event == "bump"
    # bump from 3 or 4 lands outside the declared domain: no transition
    assert 3 not in bump.plant
    assert 4 not in bump.plant
    assert oracle.safe == {0, 1, 2, 3, 4}
    assert oracle.nonempty
    assert oracle.controlled_reachable == {0, 1, 2, 3, 4}
    # the supervisor must refuse the step into the doomed state
    assert oracle.enabled_events(4) == set()
    assert oracle.enabled_events(3) == {"step"}


def test_event_condition_oracle_sets():
    oracle = ExplicitOracle(lin(parse_spec(SE_MODEL)))
    assert len(oracle.states) == 8
    # drop is plant-enabled above 3 but the requirement disables it there,
    # and nobody can prevent it: those states are forbidden outright
    assert oracle.forbidden == {4, 5, 6, 7}
    assert oracle.safe == {0, 1, 2, 3}
    assert oracle.controlled_reachable == {0, 1, 2, 3}
    assert oracle.enabled_events(3) == {"drop"}
    assert oracle.enabled_events(0) == {"inc"}


def test_input_variable_successors():
    oracle = ExplicitOracle(lin(parse_spec(INPUT_MODEL)))
    # variables: x then sensor; 4 * 3 states
    assert oracle.names == ["x", "sensor"]
    assert len(oracle.states) == 12
    env = oracle.edges[-1]
    assert env.event == "input_sensor"
    assert env.is_input and not env.controllable
    for i, state in enumerate(oracle.states):
        succs = {oracle.states[j] for j in env.plant[i]}
        expected = {
            state[:1] + (v,) for v in (0, 1, 2) if v != state[1]
        }
        assert succs == expected
    assert oracle.nonempty
    # every state is reachable: the environment drives the sensor freely
    assert oracle.controlled_reachable == set(range(12))


def test_plant_invariant_restricts_universe():
    text = """
    controllable inc;
    plant p {
      disc int[0..9] x = 0;
      location a:
        initial; marked;
        edge inc do x := x + 1;
    }
    plant invariant x <= 4;
    """
    oracle = ExplicitOracle(lin(parse_spec(text)))
    assert len(oracle.states) == 5
    # stepping to 5 would leave the plant invariant: not a transition at all
    assert 4 not in oracle.edges[0].plant
    assert oracle.forbidden == set()
    assert oracle.controlled_reachable == {0, 1, 2, 3, 4}


def test_requirement_invariant_marks_forbidden():
    text = """
    controllable inc;
    plant p {
      disc int[0..9] x = 0;
      location a:
        initial; marked;
        edge inc do x := x + 1;
    }
    requirement invariant x <= 4;
    """
    oracle = ExplicitOracle(lin(parse_spec(text)))
    assert len(oracle.states) == 10
    assert oracle.forbidden == {5, 6, 7, 8, 9}
    assert oracle.safe == {0, 1, 2, 3, 4}
    # inc is controllable, so the bad states are simply never entered
    assert oracle.controlled_reachable == {0, 1, 2, 3, 4}
    assert oracle.enabled_events(4) == set()


def brute_force_counts(model):
    """Plant-level and allowed transition counts per oracle edge (model
    edges, then input variables), from eval_expr over every in-domain
    valuation."""
    names = [var.name for var in model.variables]
    domains = {
        var.name: range(var.domain.lo, var.domain.hi + 1)
        if isinstance(var.domain, IntDomain) else range(domain_size(var.domain))
        for var in model.variables
    }

    def holds(expr, values):
        return bool(eval_expr(expr, values, {}, model.codes))

    def in_universe(values):
        return all(values[name] in domains[name] for name in names) and all(
            holds(inv.predicate, values) for inv in model.invariants
            if inv.kind == "state" and inv.side == "plant"
        )

    def conditions_hold(event, plant_side, values):
        return all(
            holds(inv.predicate, values) == (inv.kind == "needs")
            for inv in model.invariants
            if inv.kind != "state" and inv.event == event
            and (inv.side == "plant") == plant_side
        )

    universe = [
        values for values in (
            dict(zip(names, combo))
            for combo in itertools.product(*(domains[n] for n in names))
        )
        if in_universe(values)
    ]
    counts = []
    for edge in model.edges:
        plant = allowed = 0
        for values in universe:
            if not (holds(edge.guard, values)
                    and conditions_hold(edge.event, True, values)):
                continue
            target = dict(values)
            for name, rhs in edge.updates:
                target[name] = int(eval_expr(rhs, values, {}, model.codes))
            # a range error always leaves the declared domain
            if in_universe(target):
                plant += 1
                allowed += conditions_hold(edge.event, False, values)
        counts.append((plant, allowed))
    for var in model.variables:
        if var.kind == "input":
            n = sum(
                in_universe({**values, var.name: value})
                for values in universe for value in domains[var.name]
                if value != values[var.name]
            )
            counts.append((n, n))
    return counts


@pytest.mark.parametrize(
    "text",
    [RANGE_TRAP, SE_MODEL, INPUT_MODEL,
     # pins the sensor once x moves: those states have no input successor
     INPUT_MODEL + "plant invariant x = 0 or sensor = 2;\n"],
    ids=["range", "se", "input", "pinned-input"],
)
def test_successor_maps_hold_exactly_the_transitions(text):
    model = lin(parse_spec(text))
    oracle = ExplicitOracle(model)
    counts = brute_force_counts(model)
    assert len(oracle.edges) == len(counts)
    for edge, (plant, allowed) in zip(oracle.edges, counts):
        # a state without successors has no entry at all
        assert all(edge.plant.values()) and all(edge.allowed.values())
        assert sum(map(len, edge.plant.values())) == plant
        assert sum(map(len, edge.allowed.values())) == allowed
        # an edge no requirement condition cuts shares its plant map
        assert (edge.allowed is edge.plant) == (allowed == plant)


def test_universe_cap():
    text = """
    controllable c;
    plant p {
      disc int[0..999] x = 0;
      disc int[0..999] y = 0;
      location a:
        initial; marked;
        edge c do x := y;
    }
    """
    with pytest.raises(UniverseTooLarge):
        ExplicitOracle(lin(parse_spec(text)), cap=10 ** 5)


# ----------------------------------------------------------------------
# agreement with the symbolic encoding


@pytest.fixture(scope="module")
def producer(models_dir):
    spec = parse_file(models_dir / "producer_consumer.efa")
    model = lin(spec)
    oracle = ExplicitOracle(model)
    sym = build_symbolic(model, compute_order(model, "model"))
    return model, oracle, sym


def test_producer_universe(producer):
    _, oracle, _ = producer
    assert len(oracle.states) == 5 * 2 * 6 * 4 * 13
    assert len(oracle.initial) == 1
    (init,) = oracle.initial
    assert oracle.values_of(init) == {
        "producer_lp": 0, "v": 0, "x": 0, "consumer_lp": 0, "y": 0,
    }
    assert oracle.nonempty


@pytest.mark.parametrize("kind", ["initial", "marked", "forbidden"])
def test_static_sets_match_symbolic(producer, kind):
    _, oracle, sym = producer
    enc = sym.enc
    bdd = {
        "initial": sym.initial,
        "marked": sym.marked & sym.pp,
        "forbidden": sym.forbidden & sym.pp,
    }[kind]
    members = getattr(oracle, kind)
    agree_on_universe(oracle, enc, bdd, members)


@pytest.mark.parametrize(
    "text", [RANGE_TRAP, SE_MODEL, INPUT_MODEL], ids=["range", "se", "input"]
)
def test_transitions_match_symbolic(text):
    model = lin(parse_spec(text))
    oracle = ExplicitOracle(model)
    sym = build_symbolic(model, compute_order(model, "model"))
    enc = sym.enc
    mgr = enc.manager
    assert [e.event for e in oracle.edges] == [e.event for e in sym.edges]
    for oedge, sedge in zip(oracle.edges, sym.edges):
        for level, succs in (("plant", oedge.plant), ("allowed", oedge.allowed)):
            guard = sedge.guard_plant if level == "plant" else sedge.guard
            t = guard & sedge.update
            for i in range(len(oracle.states)):
                src = point(mgr, oracle.assignment_for(enc, i))
                image = mgr.relnext(src, t)
                dsts = succs.get(i, [])
                assert mgr.sat_count(image, enc.state_levels) == len(dsts)
                for j in dsts:
                    assert mgr.evaluate(image, oracle.assignment_for(enc, j))


def test_producer_transitions_match_symbolic(producer):
    _, oracle, sym = producer
    enc = sym.enc
    mgr = enc.manager
    for oedge, sedge in zip(oracle.edges, sym.edges):
        t = sedge.guard & sedge.update
        for i in range(0, len(oracle.states), 7):
            src = point(mgr, oracle.assignment_for(enc, i))
            image = mgr.relnext(src, t)
            dsts = oedge.allowed.get(i, [])
            assert mgr.sat_count(image, enc.state_levels) == len(dsts)
            for j in dsts:
                assert mgr.evaluate(image, oracle.assignment_for(enc, j))
