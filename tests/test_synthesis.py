"""Fixed-point synthesis: counting goldens and oracle equivalence."""

import dataclasses
import gc
import itertools
import random
import weakref

import pytest

from efasynth.emit import emit
from efasynth.oracle import ExplicitOracle
from efasynth.parser import parse_file, parse_spec, unparse
from efasynth import bdd, synthesis
from efasynth.bdd import BddManager
from efasynth.synthesis import (
    PRESETS, FixedPointEngine, SynthesisConfig, _count_states, relations,
    synthesize,
)
from efasynth.encode import build_symbolic
from efasynth.transform import linearize, plantify
from efasynth.varorder import compute_order

from test_oracle import INPUT_MODEL, RANGE_TRAP, SE_MODEL, lin


# A one-variable chain where backward reachability from x=0 discovers one
# new state per successful application.  The application counts below are
# structural: they depend only on the edge order and stopping rule.
CHAIN = """
controllable e1, e2, e3, e4, e5, e6;

plant chain {
  disc int[0..7] x = 0;

  location l:
    initial; marked;
    edge e1 when x = 1 do x := 0;
    edge e2 when x = 5 do x := 4;
    edge e3 when x = 2 or x = 6 do x := x - 1;
    edge e4 when x = 7 do x := 6;
    edge e5 when x = 3 do x := 2;
    edge e6 when x = 4 do x := 3;
}
"""


@pytest.mark.parametrize("edge_apply", ["naive", "compound"])
@pytest.mark.parametrize(
    "early_stop,applications", [(False, 18), (True, 16)]
)
def test_chain_application_counts(edge_apply, early_stop, applications):
    model = lin(parse_spec(CHAIN))
    sym = build_symbolic(model, compute_order(model, "model"))
    config = SynthesisConfig(
        granularity="edge", edge_apply=edge_apply, early_stop=early_stop
    )
    engine = FixedPointEngine(sym, config)
    reach = engine.reach(
        sym.initial, engine.relations, sym.manager.true, backward=True
    )
    assert engine.edge_applications == applications
    assert sym.manager.sat_count(reach, sym.enc.state_levels) == 8
    engine.close()


def safe_states(result):
    mgr = result.manager
    return mgr.sat_count(
        result.controlled & result.sym.pp, result.sym.enc.state_levels
    )


def assert_matches_oracle(result, oracle):
    assert result.nonempty == oracle.nonempty
    assert safe_states(result) == len(oracle.safe)
    assert result.metrics["uncontrolled_states"] == len(oracle.plant_reachable)
    assert result.metrics["controlled_states"] == len(
        oracle.controlled_reachable
    )
    enc = result.sym.enc
    mgr = result.manager
    within = result.controlled & result.sym.pp
    for i in range(len(oracle.states)):
        member = mgr.evaluate(within, oracle.assignment_for(enc, i))
        assert member == (i in oracle.safe), oracle.values_of(i)


@pytest.fixture(scope="module")
def producer_model(models_dir):
    return lin(parse_file(models_dir / "producer_consumer.efa"))


@pytest.fixture(scope="module")
def producer_oracle(producer_model):
    return ExplicitOracle(producer_model)


@pytest.mark.parametrize("preset", ["v08", "v40"])
@pytest.mark.parametrize("forward", [False, True])
def test_producer_presets_match_oracle(
    producer_model, producer_oracle, preset, forward
):
    config = SynthesisConfig.preset(preset)
    config.forward = forward
    result = synthesize(producer_model, config)
    assert result.nonempty == producer_oracle.nonempty
    assert result.metrics["uncontrolled_states"] == len(
        producer_oracle.plant_reachable
    )
    assert result.metrics["controlled_states"] == len(
        producer_oracle.controlled_reachable
    )
    if not forward:
        assert safe_states(result) == len(producer_oracle.safe)


@pytest.mark.parametrize(
    "granularity,edge_apply",
    list(itertools.product(["edge", "event"], ["naive", "compound"])),
)
def test_producer_granularity_apply_match_oracle(
    producer_model, producer_oracle, granularity, edge_apply
):
    result = synthesize(
        producer_model,
        SynthesisConfig(granularity=granularity, edge_apply=edge_apply),
    )
    assert_matches_oracle(result, producer_oracle)


@pytest.mark.parametrize(
    "text", [RANGE_TRAP, SE_MODEL, INPUT_MODEL], ids=["range", "se", "input"]
)
@pytest.mark.parametrize("preset", ["v08", "v40"])
def test_small_models_match_oracle(text, preset):
    model = lin(parse_spec(text))
    oracle = ExplicitOracle(model)
    result = synthesize(model, SynthesisConfig.preset(preset))
    assert_matches_oracle(result, oracle)


def test_strengthened_guards_block_exactly_unsafe_steps(producer_model,
                                                        producer_oracle):
    result = synthesize(producer_model, SynthesisConfig.preset("v40"))
    oracle = producer_oracle
    enc = result.sym.enc
    mgr = result.manager
    for oedge, sedge in zip(oracle.edges, strengthened_edges(result)):
        assert oedge.event == sedge.event
        if not sedge.controllable:
            continue
        for i in range(0, len(oracle.states), 3):
            enabled = mgr.evaluate(sedge.guard, oracle.assignment_for(enc, i))
            wants = any(j in oracle.safe for j in oedge.allowed.get(i, []))
            assert enabled == wants, (sedge.event, oracle.values_of(i))


EMPTY = """
uncontrollable tick;
plant p {
  disc int[0..3] x = 0;
  location a:
    initial; marked;
    edge tick do x := x + 1;
}
requirement invariant x <= 2;
"""


def test_empty_supervisor_detected():
    model = lin(parse_spec(EMPTY))
    oracle = ExplicitOracle(model)
    assert not oracle.nonempty
    for preset in ("v08", "v40"):
        result = synthesize(model, SynthesisConfig.preset(preset))
        assert not result.nonempty
        assert result.initial.is_false
        assert result.metrics["controlled_states"] == 0


def test_metrics_are_deterministic(producer_model):
    a = synthesize(producer_model, SynthesisConfig.preset("v40")).metrics
    b = synthesize(producer_model, SynthesisConfig.preset("v40")).metrics
    # every metric but count_s, the state count's wall time, is a counter
    assert a.pop("count_s") >= 0 and b.pop("count_s") >= 0
    assert a == b


def test_presets_differ_in_cost_not_result(producer_model):
    v08 = synthesize(producer_model, SynthesisConfig.preset("v08"))
    v40 = synthesize(producer_model, SynthesisConfig.preset("v40"))
    assert safe_states(v08) == safe_states(v40)
    assert v08.metrics["controlled_states"] == v40.metrics["controlled_states"]
    assert v40.metrics["operations"] < v08.metrics["operations"]
    assert v40.metrics["edge_applications"] < v08.metrics["edge_applications"]


def test_forward_pass_clips_behavior_to_reachable(producer_model):
    config = SynthesisConfig.preset("v40")
    config.forward = True
    fwd = synthesize(producer_model, config)
    plain = synthesize(producer_model, SynthesisConfig.preset("v40"))
    assert safe_states(fwd) <= safe_states(plain)
    assert (
        fwd.metrics["controlled_states"] == plain.metrics["controlled_states"]
    )


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        SynthesisConfig.preset("v99")


@pytest.mark.parametrize(
    "field", ["order", "granularity", "edge_apply", "plant_inv"]
)
def test_config_rejects_unknown_values(producer_model, field):
    with pytest.raises(ValueError, match="bogus"):
        SynthesisConfig(**{field: "bogus"})
    if field == "plant_inv":
        order = compute_order(producer_model, "model")
        with pytest.raises(ValueError, match="bogus"):
            build_symbolic(producer_model, order, **{field: "bogus"})


@pytest.mark.parametrize("field", ["edge_apply", "order"])
def test_config_rejects_bad_assignment(field):
    config = SynthesisConfig()
    with pytest.raises(ValueError, match="bogus"):
        setattr(config, field, "bogus")
    assert getattr(config, field) == getattr(SynthesisConfig(), field)


@pytest.mark.parametrize("field", ["early_stop", "forward"])
def test_config_rejects_non_bool_toggles(field):
    # "off" is a truthy string: taken as is, it would switch the toggle on
    with pytest.raises(ValueError, match="'off'"):
        SynthesisConfig(**{field: "off"})
    config = SynthesisConfig()
    with pytest.raises(ValueError, match="'off'"):
        setattr(config, field, "off")
    assert getattr(config, field) == getattr(SynthesisConfig(), field)


def test_presets_override_the_defaults():
    assert SynthesisConfig.preset("v40") == SynthesisConfig()
    v08 = SynthesisConfig.preset("v08")
    assert {
        f.name: getattr(v08, f.name)
        for f in dataclasses.fields(SynthesisConfig)
        if getattr(v08, f.name) != f.default
    } == PRESETS["v08"]


def test_manager_freed_without_collector(models_dir):
    # Reference counting alone must free a finished synthesis: nothing the
    # manager owns may refer back to it.
    plant = plantify(parse_file(models_dir / "producer_consumer.efa"))
    model, _ = linearize(plant)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = synthesize(model, SynthesisConfig.preset("v40"))
        text = unparse(emit(plant, result))
        manager = weakref.ref(result.manager)
        del result, text
        assert manager() is None
    finally:
        if enabled:
            gc.enable()


def test_engine_caches_survive_edge_copies(producer_model):
    # Temporary edge copies and their relations die between the two calls,
    # so the second list can reuse their ids; the framed relations of naive
    # application (v08) must follow the relations' values.
    for preset in ("v08", "v40"):
        config = SynthesisConfig.preset(preset)
        sym = build_symbolic(
            producer_model, compute_order(producer_model, config.order),
            plant_inv=config.plant_inv,
        )
        mgr = sym.manager

        def plant_states(engine, guard):
            edges = [
                dataclasses.replace(e, guard=guard(e)) for e in sym.edges
            ]
            rels = relations(sym.enc, sym.events, edges, per_event=False)
            reach = engine.reach(sym.initial, rels, mgr.true, backward=False)
            return mgr.sat_count(reach, sym.enc.state_levels)

        engine = FixedPointEngine(sym, config)
        assert plant_states(engine, lambda e: mgr.false) == 1, preset
        assert plant_states(engine, lambda e: e.guard_plant) == 482, preset
        engine.close()


def all_toggles():
    for granularity, edge_apply, early_stop, forward, plant_inv in (
        itertools.product(
            ["edge", "event"], ["naive", "compound"], [False, True],
            [False, True], ["implication", "restrict"],
        )
    ):
        yield SynthesisConfig(
            granularity=granularity, edge_apply=edge_apply,
            early_stop=early_stop, forward=forward, plant_inv=plant_inv,
        )


def strengthened_edges(result):
    """The base edges, each controllable one with its guard strengthened
    against the final behavior, ``relprev(behavior, guard & update)``: the
    per-edge reference for ``result.event_guards``."""
    mgr = result.manager
    return [
        dataclasses.replace(
            e, guard=mgr.relprev(result.controlled, e.guard & e.update)
        ) if e.controllable and not e.is_input else e
        for e in result.sym.edges
    ]


def reach_counts(result):
    """The state counts by ``FixedPointEngine.reach`` under the run's own
    configuration, over one relation per model edge.  A reach may free the
    nodes no root holds, so the first count is registered across the
    second."""
    sym = result.sym
    mgr = result.manager
    levels = sym.enc.state_levels
    engine = FixedPointEngine(sym, result.config)
    plant_edges = [
        dataclasses.replace(e, guard=e.guard_plant) for e in sym.edges
    ]

    def per_edge(edges):
        return relations(sym.enc, sym.events, edges, per_event=False)

    us = mgr.register_root(engine.reach(
        sym.initial, per_edge(plant_edges), mgr.true, backward=False
    ))
    cs = engine.reach(
        sym.initial & result.controlled, per_edge(strengthened_edges(result)),
        result.controlled, backward=False,
    )
    counts = (
        mgr.sat_count(us, levels),
        mgr.sat_count(cs, levels) if result.nonempty else 0,
    )
    mgr.release_root(us)
    engine.close()
    return counts


AGREEMENT_MODELS = [
    "agv_mutex", "cat_mouse", "dining_philosophers", "producer_consumer",
    "sensor_input", "empty", "philosophers", "chain", "tanks",
]


@pytest.mark.parametrize("name", AGREEMENT_MODELS)
def test_state_counts_agree_with_engine_reach(models_dir, families, name):
    # State counting has one method under every configuration; each run's
    # counts must equal those of the engine's reach under its own toggles.
    generated = {
        "empty": EMPTY, "philosophers": families.philosophers(2),
        "chain": families.chain(4), "tanks": families.tank(2, 10),
    }
    text = generated.get(name) or (models_dir / f"{name}.efa").read_text()
    model = lin(parse_spec(text))
    for config in all_toggles():
        result = synthesize(model, config)
        m = result.metrics
        counts = (m["uncontrolled_states"], m["controlled_states"])
        assert counts == reach_counts(result), config


@pytest.mark.parametrize("name", [
    "agv_mutex", "cat_mouse", "dining_philosophers", "producer_consumer",
    "sensor_input", "philosophers(8)", "tank(2, 40)",
])
def test_event_guards_are_unions_of_per_edge_guards(models_dir, families,
                                                    name):
    # Granularity, edge application and early stopping change how the
    # fixed points iterate, not where they end: the emitted supervisor
    # depends on the forward stage and the plant-invariant mode alone.
    plant = plantify(parse_spec(model_text(models_dir, families, name)))
    model, diags = linearize(plant)
    assert not diags
    emitted = {}
    for config in all_toggles():
        result = synthesize(model, config)
        mgr = result.manager
        unions = {e: mgr.false for e, controllable in result.sym.events
                  if controllable}
        for edge in strengthened_edges(result):
            if edge.controllable:
                unions[edge.event] = unions[edge.event] | edge.guard
        assert result.event_guards == unions, config
        text = unparse(emit(plant, result))
        key = (config.forward, config.plant_inv)
        assert emitted.setdefault(key, text) == text, config
    assert len(emitted) == 4


# The two flip edges set b to true and to false under one guard, so the
# relation that merges them is the guard alone: b's next-state bit leaves
# its support, though flip assigns b.
FLIP = """
controllable go, flip;

plant p {
  disc bool on = false;
  disc bool b = false;
  location l:
    initial; marked;
    edge go do on := true;
    edge flip when on do b := true;
    edge flip when on do b := false;
}

requirement invariant not b;
"""


def test_event_guards_keep_bits_a_merged_relation_loses():
    model = lin(parse_spec(FLIP))
    oracle = ExplicitOracle(model)
    for config in all_toggles():
        if config.granularity != "event":
            continue
        result = synthesize(model, config)
        sym, mgr = result.sym, result.manager
        (flip,) = [
            r for r in relations(sym.enc, sym.events, sym.edges, True)
            if r.event == "flip"
        ]
        b_next = sym.enc.by_name["b"].levels[0] + 1
        assert b_next in flip.levels
        assert b_next not in mgr.support(flip.rel)
        # from every state with ``on``, one flip edge stays inside not b
        want = {"go": mgr.false, "flip": mgr.false}
        for edge in strengthened_edges(result):
            want[edge.event] = want[edge.event] | edge.guard
        assert result.event_guards == want, config
        within = oracle.controlled_reachable if config.forward else None
        states = oracle.event_guard_states("flip", within=within)
        assert len(states) == 2
        guard = result.event_guards["flip"]
        assert mgr.sat_count(guard & sym.pp, sym.enc.state_levels) == 2
        for i in states:
            assert mgr.evaluate(guard, oracle.assignment_for(sym.enc, i))


@pytest.mark.parametrize("granularity", ["edge", "event"])
def test_engine_owns_the_relations_it_merges(producer_model, granularity):
    # The engine builds its relations when it is made, one per model edge
    # under 'edge' and one per event under 'event', and holds them, with
    # the framed relations that naive application builds, until it closes.
    sym = build_symbolic(producer_model, compute_order(producer_model, "model"))
    mgr = sym.manager
    live = mgr.live_nodes
    engine = FixedPointEngine(
        sym, SynthesisConfig(granularity=granularity, edge_apply="naive")
    )
    events = [r.event for r in engine.relations]
    if granularity == "edge":
        assert events == [e.event for e in sym.edges]
        assert [r.assigned for r in engine.relations] == [
            e.assigned for e in sym.edges
        ]
    else:
        assert events == [name for name, _ in sym.events]
        assert len(events) < len(sym.edges)
    held = mgr.live_nodes
    assert held > live
    engine.reach(sym.marked, engine.relations, mgr.true, backward=True)
    assert mgr.live_nodes > held
    engine.close()
    assert mgr.live_nodes == live


COUNTER = """
controllable inc;

plant counter {
  disc int[0..3] x = 0;
  location low:
    initial; marked;
    edge inc do x := x + 1 goto high;
  location high:
    marked;
    edge inc do x := x + 1;
}

requirement invariant inc needs x < 2;
"""


def test_controlled_count_follows_strengthened_guards():
    # Both reaches see the same merged event relation up to the guard: only
    # the requirement, through the strengthened guard, stops x at 2.  The
    # second edge keeps its location, so merging must frame it.
    model = lin(parse_spec(COUNTER))
    oracle = ExplicitOracle(model)
    assert len(oracle.plant_reachable) == 4
    assert len(oracle.controlled_reachable) == 3
    for config in all_toggles():
        m = synthesize(model, config).metrics
        assert m["uncontrolled_states"] == 4, config
        assert m["controlled_states"] == 3, config


def plain_counts(sym, behavior, strengthened):
    """The reference for ``_count_states``: both forward reaches over every
    variable, input edges included, with the edges merged per event.  A
    reach may free the nodes no root holds, so the behavior and the
    strengthened guards are registered across the first."""
    mgr = sym.manager
    held = [mgr.register_root(behavior)] + [
        mgr.register_root(e.guard) for e in strengthened
    ]
    counter = FixedPointEngine(
        sym, SynthesisConfig(edge_apply="compound", early_stop=True)
    )
    plant_edges = [
        dataclasses.replace(e, guard=e.guard_plant) for e in sym.edges
    ]

    def count(start, edges, restriction):
        merged = relations(sym.enc, sym.events, edges, per_event=True)
        reached = counter.reach(start, merged, restriction, backward=False)
        return mgr.sat_count(reached, sym.enc.state_levels)

    try:
        return (
            count(sym.initial, plant_edges, mgr.true),
            count(sym.initial & behavior, strengthened, behavior),
        )
    finally:
        counter.close()
        for ref in held:
            mgr.release_root(ref)


def model_text(models_dir, families, name):
    """A shipped model by its file stem, or a generated one written as
    ``family(size, ...)``."""
    if "(" not in name:
        return (models_dir / f"{name}.efa").read_text()
    family, sizes = name.rstrip(")").split("(")
    return getattr(families, family)(*map(int, sizes.split(",")))


@pytest.mark.parametrize("preset", ["v08", "v40"])
@pytest.mark.parametrize("name", [
    "agv_mutex", "cat_mouse", "dining_philosophers", "producer_consumer",
    "philosophers(6)", "chain(30)",
])
def test_input_free_models_count_over_every_variable(
    models_dir, families, name, preset
):
    # Without inputs the count is over every variable, as the plain one.
    model = lin(parse_spec(model_text(models_dir, families, name)))
    assert not any(v.kind == "input" for v in model.variables)
    result = synthesize(model, SynthesisConfig.preset(preset))
    m = result.metrics
    us, cs = plain_counts(
        result.sym, result.controlled, strengthened_edges(result)
    )
    assert (m["uncontrolled_states"], m["controlled_states"]) == (us, cs)


def random_input_model(rng):
    """A plant over ``x``, ``y`` and a location, with 1-3 inputs read in
    guards, update right-hand sides, requirements and markers, and plant
    invariants that may couple inputs with the state and with each other."""
    inputs = []  # (declaration, atoms, right-hand sides for x and for y)
    for k in range(rng.randint(1, 3)):
        kind = rng.choice(["bool", "enum", "int"])
        name = f"i{k}"
        if kind == "bool":
            inputs.append((f"input bool {name};", [name, f"not {name}"],
                           ["x"], [name]))
        elif kind == "enum":  # three values in two bits
            inputs.append((
                f"input enum {{lo{k}, mid{k}, hi{k}}} {name};",
                [f"{name} = lo{k}", f"{name} != hi{k}"],
                ["x"], [f"{name} = mid{k}"],
            ))
        else:
            inputs.append((f"input int[1..3] {name};",
                           [f"{name} < 3", f"{name} = 2"],
                           [name, f"{name} - 1"], [f"{name} > 1"]))
    input_atoms = [a for _, atoms, _, _ in inputs for a in atoms]
    state_atoms = ["x < 2", "x = 3", "y", "not y"]

    def pred(atoms):
        picked = rng.sample(atoms, rng.randint(1, 2))
        return f" {rng.choice(['and', 'or'])} ".join(picked)

    def edge(event, target):
        parts = [f"edge {event}"]
        if rng.random() < 0.7:
            parts.append(f"when {pred(input_atoms + state_atoms)}")
        rhs_x = ["x + 1", "0"] + [r for _, _, rx, _ in inputs for r in rx]
        rhs_y = ["not y"] + [r for _, _, _, ry in inputs for r in ry]
        updates = []
        if rng.random() < 0.6:
            updates.append(f"x := {rng.choice(rhs_x)}")
        if rng.random() < 0.4:
            updates.append(f"y := {rng.choice(rhs_y)}")
        if updates:
            parts.append("do " + ", ".join(updates))
        parts.append(f"goto {target}")
        return "    " + " ".join(parts) + ";"

    lines = ["controllable c1, c2;", "uncontrollable u1;"]
    lines += [decl for decl, _, _, _ in inputs]
    lines += ["plant p {", "  disc int[0..3] x = 0;", "  disc bool y = false;",
              "  location a:", "    initial; marked;",
              edge("c1", "b"), edge("u1", "a"), "  location b:",
              "    marked;" if rng.random() < 0.5 else "",
              edge("c2", "a"), edge("u1", "b"), "}"]
    lines.append(f"requirement invariant c1 needs {pred(input_atoms)};")
    if rng.random() < 0.3:
        lines.append(f"requirement invariant u1 needs {pred(input_atoms)};")
    if rng.random() < 0.5:
        lines.append(
            f"requirement invariant {pred(input_atoms + state_atoms)};"
        )
    if rng.random() < 0.5:
        lines.append(
            f"plant invariant not ({rng.choice(state_atoms)})"
            f" or {rng.choice(input_atoms)};"
        )
    if len(inputs) > 1 and rng.random() < 0.5:
        lines.append(f"plant invariant {pred(input_atoms)};")
    if len(inputs) > 1 and rng.random() < 0.3:
        # two inputs that only move together: no single-input move is left
        one, two = rng.sample([atoms for _, atoms, _, _ in inputs], 2)
        lines.append(
            f"plant invariant ({rng.choice(one)}) = ({rng.choice(two)});"
        )
    if rng.random() < 0.5:
        lines.append(f"marked {pred(input_atoms + state_atoms)};")
    return "\n".join(lines) + "\n"


def test_projected_counts_match_plain_counts_and_oracle(monkeypatch):
    # Record for each count whether it dropped the input edges, so both
    # the projected count and its fallbacks are seen to run.  Each count
    # that saturates builds its relations once, the plant count first; a
    # nonempty run with the forward stage counts its behavior as it is, so
    # only the plant count builds them, and plant invariants that no state
    # satisfies leave nothing to count.  The fixed-point engine builds
    # relations too; only those built while counting are recorded.
    paths = set()
    count_states, merge = synthesis._count_states, synthesis.relations
    merged = []
    counting = []
    boxes_kept = []

    def count_spy(sym, behavior, closed=False):
        merged.clear()
        counting.append(True)
        try:
            counts = count_states(sym, behavior, closed)
        finally:
            counting.pop()
        assert len(merged) == (0 if sym.pp.is_false else 1 if closed else 2)
        # A projected plant count means (P) holds.  Then every behavior
        # with a surviving initial state keeps all of an input box or none
        # of it, which is (R), the condition the projection relies on.
        if (merged and not any(e.is_input for e in merged[0])
                and not (sym.initial & behavior).is_false):
            mgr = sym.manager
            inputs = [lvl for s in sym.enc.symvars if s.var.kind == "input"
                      for lvl in s.levels]
            care = behavior & sym.pp
            assert care == mgr.exists(care, inputs) & sym.pp
            boxes_kept.append(closed)
        return counts

    def merge_spy(enc, events, edges, per_event):
        if counting:
            assert per_event
            paths.add((not merged, not any(e.is_input for e in edges)))
            merged.append(edges)
        return merge(enc, events, edges, per_event)

    monkeypatch.setattr(synthesis, "_count_states", count_spy)
    monkeypatch.setattr(synthesis, "relations", merge_spy)
    rng = random.Random(13)
    for _ in range(60):
        text = random_input_model(rng)
        model = lin(parse_spec(text))
        oracle = ExplicitOracle(model)
        expected = (
            len(oracle.plant_reachable),
            len(oracle.controlled_reachable) if oracle.nonempty else 0,
        )
        for preset, forward in itertools.product(("v08", "v40"),
                                                 (False, True)):
            config = SynthesisConfig.preset(preset)
            config.forward = forward
            result = synthesize(model, config)
            m = result.metrics
            counts = (m["uncontrolled_states"], m["controlled_states"])
            us, cs = plain_counts(
                result.sym, result.controlled, strengthened_edges(result)
            )
            assert counts == (us, cs if result.nonempty else 0), text
            assert counts == expected, (preset, forward, text)
    # (plant count?, projected?)
    assert paths == {(True, True), (True, False), (False, True),
                     (False, False)}
    # (R) was seen to hold with the forward stage off and on
    assert set(boxes_kept) == {False, True}


# The plant invariant ties the input to x: d = 2 needs x >= 1.  Over
# three values in two bits, ``pp`` also holds the domain conjunct of d.
TIED_INPUT = """
controllable up, open;
uncontrollable slip, close;
input int[0..2] d;
plant p {
  disc int[0..3] x = 0;
  location a:
    initial; marked;
    edge up when d != 0 and x < 3 do x := x + 1;
    edge slip when d = 2 do x := x - 1;
    edge open when d = 1 goto b;
  location b:
    edge close do x := 0 goto a;
}
plant invariant d != 2 or x >= 1;
requirement invariant x <= 2;
"""

# No state satisfies the plant invariants, so ``pp`` is false.
NO_STATE = """
controllable go;
input bool i;
plant p {
  disc int[0..3] x = 0;
  location a:
    initial; marked;
    edge go when i do x := x + 1;
}
plant invariant x > 3;
"""


@pytest.mark.parametrize("text,expected", [
    (TIED_INPUT, (22, 16)), (NO_STATE, (0, 0)),
])
def test_counts_of_relations_simplified_against_pp_are_exact(text, expected):
    model = lin(parse_spec(text))
    oracle = ExplicitOracle(model)
    assert (len(oracle.plant_reachable),
            len(oracle.controlled_reachable)) == expected
    for preset, forward, plant_inv in itertools.product(
        ("v08", "v40"), (False, True), ("implication", "restrict")
    ):
        config = SynthesisConfig.preset(preset)
        config.forward, config.plant_inv = forward, plant_inv
        result = synthesize(model, config)
        m = result.metrics
        counts = (m["uncontrolled_states"], m["controlled_states"])
        assert counts == expected, (preset, forward, plant_inv)
        us, cs = plain_counts(
            result.sym, result.controlled, strengthened_edges(result)
        )
        assert counts == (us, cs if result.nonempty else 0)


def test_coupled_inputs_are_counted_over_every_variable():
    # a = b rules out every single-input move: the inputs stay where they
    # start.  Projected, the count would be 2 values of x times 2 of (a, b).
    text = """
    controllable go;
    input bool a;
    input bool b;
    plant p {
      disc bool x = false;
      location s:
        initial; marked;
        edge go when a do x := true;
    }
    plant invariant a = b;
    """
    model = lin(parse_spec(text))
    assert len(ExplicitOracle(model).plant_reachable) == 3
    for preset in ("v08", "v40"):
        m = synthesize(model, SynthesisConfig.preset(preset)).metrics
        assert (m["uncontrolled_states"], m["controlled_states"]) == (3, 3)


def test_projected_count_stays_inside_the_care_set():
    # The behavior keeps only (x, i) = (1, 0) at x = 1, which the plant
    # invariant rules out, so no state with x = 1 is reachable and neither
    # is x = 2.  The projected reach is bounded by EXISTS i. (behavior &
    # pp), which leaves x = 1 out; EXISTS i. behavior would let it in, and
    # (2, 0) and (2, 1) would count.
    text = """
    controllable go;
    input bool i;
    plant p {
      disc int[0..2] x = 0;
      location s:
        initial; marked;
        edge go when x < 2 do x := x + 1;
    }
    plant invariant x != 1 or i;
    """
    model = lin(parse_spec(text))
    sym = build_symbolic(model, compute_order(model, "model"))
    mgr = sym.manager
    x0, x1 = sym.enc.bits("x")
    (i,) = sym.enc.bits("i")
    behavior = mgr.negate(x1) & (mgr.negate(x0) | mgr.negate(i)) | x1
    assert _count_states(sym, behavior) == (5, 2)
    assert plain_counts(sym, behavior, sym.edges) == (5, 2)


@pytest.mark.parametrize("forward", [False, True])
@pytest.mark.parametrize("preset", ["v08", "v40"])
def test_saturated_counts_match_round_robin_counts(
    models_dir, families, preset, forward
):
    # Saturation over the base edges inside the behavior counts what the
    # round-robin reach over the strengthened edges counts.  The forward
    # stage changes the behavior the controlled count stays inside.
    texts = [path.read_text() for path in sorted(models_dir.glob("*.efa"))]
    for text in texts + [EMPTY, families.tank(2, 12)]:
        config = SynthesisConfig.preset(preset)
        config.forward = forward
        result = synthesize(lin(parse_spec(text)), config)
        m = result.metrics
        us, cs = plain_counts(
            result.sym, result.controlled, strengthened_edges(result)
        )
        assert (m["uncontrolled_states"], m["controlled_states"]) == (
            us, cs if result.nonempty else 0
        )


@pytest.mark.parametrize("preset", ["v08", "v40"])
def test_forward_closed_behavior_is_counted_as_it_is(
    models_dir, families, preset, monkeypatch
):
    # With the forward stage a nonempty behavior is forward-closed from its
    # initial states under the same edges, so it is its own controlled
    # reach: only the plant count saturates.  The full saturation stays the
    # reference.
    saturations = []
    saturate = BddManager.saturate

    def spy(self, *args, **kwargs):
        saturations.append(args)
        return saturate(self, *args, **kwargs)

    monkeypatch.setattr(BddManager, "saturate", spy)
    texts = [path.read_text() for path in sorted(models_dir.glob("*.efa"))]
    for text in texts + [families.tank(2, 12)]:
        config = SynthesisConfig.preset(preset)
        config.forward = True
        saturations.clear()
        result = synthesize(lin(parse_spec(text)), config)
        assert result.nonempty and len(saturations) == 1
        full = _count_states(result.sym, result.controlled)
        m = result.metrics
        assert (m["uncontrolled_states"], m["controlled_states"]) == full


@pytest.mark.parametrize("preset", ["v08", "v40"])
def test_count_operations_depend_on_the_count_alone(models_dir, preset):
    # Counting runs on an empty computed cache, so synthesis work that
    # early stopping or compound application saves cannot move it, and a
    # count after clearing the cache does the same work.
    for path in sorted(models_dir.glob("*.efa")):
        model = lin(parse_spec(path.read_text()))
        counted = set()
        for early_stop, edge_apply in itertools.product(
            (False, True), ("naive", "compound")
        ):
            config = SynthesisConfig.preset(preset)
            config.early_stop, config.edge_apply = early_stop, edge_apply
            result = synthesize(model, config)
            counted.add(result.metrics["count_operations"])
            mgr = result.manager
            mgr._cache.clear()
            before = mgr.op_total
            _count_states(result.sym, result.controlled)
            counted.add(mgr.op_total - before)
        assert len(counted) == 1, (path.name, counted)


@pytest.mark.parametrize("family,size,bound", [
    # six operations per boolean: one saturation step on the way down, the
    # image that sets the next boolean, the step that saturates it, the
    # image that finds nothing new, the union inside it, and the relation
    ("chain", 400, 6 * 400),
    ("philosophers", 15, 5000),
])
def test_state_counts_scale_linearly(families, family, size, bound):
    text = getattr(families, family)(size)
    m = synthesize(lin(parse_spec(text)), SynthesisConfig.preset("v40")).metrics
    assert m["count_operations"] <= bound


# Counters of the fixed-point driver per model and toggles (granularity,
# order and plant invariants at their v40 values).  They pin where the
# round-robin loops stop, including the bail-out on an empty supervisor;
# a change that moves any of them must say why.
# Columns: model, early_stop, forward, edge_apply, then operations and the
# stage operations (encode, nonblocking, controllability, forward or "-",
# strengthen), then sweeps, edge_applications, reach_calls, peak_nodes and
# controlled_states.
GOLDEN = """
agv_mutex           off off naive     2165 477  1482  146     -   44 2  52 4  402  91
agv_mutex           off off compound   847 477   267   45     -   42 2  52 4  202  91
agv_mutex           off on  naive     5398 477  1806  250  2789   54 2 136 6  496  91
agv_mutex           off on  compound  1649 477   305   92   700   53 2 136 6  237  91
agv_mutex           on  off naive     1761 477  1078  146     -   44 1  23 2  390  91
agv_mutex           on  off compound   735 477   155   45     -   42 1  23 2  202  91
agv_mutex           on  on  naive     4878 477  1806  250  2269   54 2  87 5  495  91
agv_mutex           on  on  compound  1374 477   305   92   425   53 2  87 5  237  91
cat_mouse           off off naive      796 139   554   81     -   16 2  36 4  124   6
cat_mouse           off off compound   312 139   123   30     -   14 2  36 4   61   6
cat_mouse           off on  naive     1011 139   503   81   266   16 2  60 6  124   6
cat_mouse           off on  compound   343 139   123   30    31   14 2  60 6   61   6
cat_mouse           on  off naive      793 139   554   78     -   16 2  30 3  124   6
cat_mouse           on  off compound   309 139   123   27     -   14 2  30 3   61   6
cat_mouse           on  on  naive     1008 139   503   78   266   16 2  41 4  124   6
cat_mouse           on  on  compound   340 139   123   27    31   14 2  41 4   61   6
dining_philosophers off off naive    29271 459 28065  149     -  585 2 270 4 1862 241
dining_philosophers off off compound  8066 459  6928  149     -  517 2 270 4  583 241
dining_philosophers off on  naive    34176 459 26711  149  6259  585 2 330 6 1862 241
dining_philosophers off on  compound  8405 459  6923  149   344  517 2 330 6  583 241
dining_philosophers on  off naive    20515 459 19309  149     -  585 1 125 2  981 241
dining_philosophers on  off compound  4936 459  3798  149     -  517 1 125 2  583 241
dining_philosophers on  on  naive    26774 459 19309  149  6259  585 1 154 3 1755 241
dining_philosophers on  on  compound  5280 459  3798  149   344  517 1 154 3  583 241
producer_consumer   off off naive     6758 861  5362  362     -  161 2 158 4  765 249
producer_consumer   off off compound  2863 861  1715  159     -  116 2 158 4  334 249
producer_consumer   off on  naive    19105 861  6705 1019 10254  245 2 354 6 1155 249
producer_consumer   off on  compound  7262 861  1698  466  4000  216 2 354 6  450 249
producer_consumer   on  off naive     5104 861  3708  362     -  161 1  79 2  601 249
producer_consumer   on  off compound  2145 861   997  159     -  116 1  79 2  334 249
producer_consumer   on  on  naive    16368 861  6705 1019  7517  245 2 254 5 1043 249
producer_consumer   on  on  compound  5558 861  1698  466  2296  216 2 254 5  437 249
sensor_input        off off naive      525 172   312   23     -   15 2  20 4  147  30
sensor_input        off off compound   250 172    57    5     -   13 2  20 4   82  30
sensor_input        off on  naive     1378 172   409  104   670   18 2  60 6  193  30
sensor_input        off on  compound   473 172    58   32   188   18 2  60 6   89  30
sensor_input        on  off naive      483 172   270   23     -   15 1  10 2  147  30
sensor_input        on  off compound   233 172    40    5     -   13 1  10 2   82  30
sensor_input        on  on  naive     1254 172   409  104   546   18 2  38 5  179  30
sensor_input        on  on  compound   401 172    58   32   116   18 2  38 5   87  30
empty               off off naive       68  35    11   22     -    0 1   5 2   15   0
empty               off off compound    41  35     0    6     -    0 1   5 2   13   0
empty               off on  naive       68  35    11   22     0    0 1   5 2   15   0
empty               off on  compound    41  35     0    6     0    0 1   5 2   13   0
empty               on  off naive       68  35    11   22     -    0 1   5 2   15   0
empty               on  off compound    41  35     0    6     -    0 1   5 2   13   0
empty               on  on  naive       68  35    11   22     0    0 1   5 2   15   0
empty               on  on  compound    41  35     0    6     0    0 1   5 2   13   0
"""
GOLDEN_ROWS = [line.split() for line in GOLDEN.strip().splitlines()]


@pytest.mark.parametrize(
    "row", GOLDEN_ROWS, ids=["-".join(row[:4]) for row in GOLDEN_ROWS]
)
def test_driver_counters_golden(models_dir, row):
    name, early_stop, forward, edge_apply = row[:4]
    ops, enc, nb, ctrl, fwd, strengthen, *counts = (
        None if cell == "-" else int(cell) for cell in row[4:]
    )
    if name == "empty":
        text = EMPTY
    else:
        text = (models_dir / f"{name}.efa").read_text()
    config = SynthesisConfig(
        early_stop=early_stop == "on", forward=forward == "on",
        edge_apply=edge_apply,
    )
    m = synthesize(lin(parse_spec(text)), config).metrics
    stages = {"encode": enc, "nonblocking": nb, "controllability": ctrl}
    if fwd is not None:
        stages["forward"] = fwd
    stages["strengthen"] = strengthen
    assert m["operations"] == ops
    assert m["stage_operations"] == stages
    # the work between stage calls closes the sum
    assert sum(stages.values()) + m["unstaged_operations"] == ops
    assert [
        m["sweeps"], m["edge_applications"], m["reach_calls"],
        m["peak_nodes"], m["controlled_states"],
    ] == counts


# Counters of the benchmark families' first members, under the preset each
# workload runs: a kernel change that moves any of them on a generated
# model fails here.  Columns: operations, peak_nodes, live_nodes,
# allocated_nodes, count_operations, then op_counts() in operator order
# (and or xor diff imp biimp not ite exists replace restrict relnext
# relprev), which covers the state count too.
FAMILY_COUNTERS = {
    ("philosophers(8)", "v40"): (
        30630, 1338, 1338, 8523, 804,
        690, 2340, 0, 0, 0, 0, 307, 0, 224, 0, 0, 503, 27370,
    ),
    ("chain(100)", "v40"): (
        497, 398, 398, 498, 590,
        297, 97, 0, 0, 0, 0, 100, 0, 199, 0, 0, 394, 0,
    ),
    ("tank(2,40)", "v08"): (
        16988, 1725, 1029, 6865, 3728,
        12167, 2384, 77, 0, 0, 89, 339, 0, 2275, 525, 902, 1410, 548,
    ),
}


@pytest.mark.parametrize(
    "name,preset", FAMILY_COUNTERS, ids=[n for n, _ in FAMILY_COUNTERS]
)
def test_family_counters_golden(models_dir, families, name, preset):
    model = lin(parse_spec(model_text(models_dir, families, name)))
    result = synthesize(model, SynthesisConfig.preset(preset))
    m = result.metrics
    keys = ("operations", "peak_nodes", "live_nodes", "allocated_nodes",
            "count_operations")
    ops = list(result.sym.manager.op_counts().values())
    assert [m[k] for k in keys] + ops == list(FAMILY_COUNTERS[name, preset])
    assert sum(ops) == m["operations"] + m["count_operations"]


@pytest.mark.parametrize("k,cap,preset,bound", [
    (3, 24, "v08", 10_000),
    (3, 24, "v40", 10_000),
    (3, 60, "v40", 30_000),
])
def test_tank_count_relations_start_where_their_edges_do(
    families, k, cap, preset, bound
):
    # Simplified against pp, no counting relation carries the domain
    # predicate of every variable, so saturation fires each one where its
    # edge reads or writes (7,878, 8,973 and 22,752 operations; 22,178,
    # 25,589 and 108,223 when every relation started at the top pair).
    text = families.tank(k, cap)
    m = synthesize(lin(parse_spec(text)), SynthesisConfig.preset(preset)).metrics
    assert m["count_operations"] <= bound


@pytest.mark.parametrize("name", [
    "agv_mutex", "cat_mouse", "dining_philosophers", "producer_consumer",
    "sensor_input", "philosophers(8)", "chain(100)", "tank(2,12)",
])
def test_collecting_at_every_safe_point_changes_no_result(
    models_dir, families, monkeypatch, name
):
    # With both thresholds at 0 every safe point of compound application
    # collects.  Collection purges computed-table entries, so operation
    # counts may rise, but the sets, the emitted guards and the live-node
    # high-water mark stay as they are without it.
    plant = plantify(parse_spec(model_text(models_dir, families, name)))
    model, _ = linearize(plant)
    safe_points = []
    safe_point = BddManager.safe_point

    def counted(mgr):
        safe_points.append(mgr)
        safe_point(mgr)

    def run(config):
        result = synthesize(model, config)
        m = result.metrics
        texts = [unparse(emit(plant, result, simplify))
                 for simplify in (True, False)]
        return m, (m["uncontrolled_states"], m["controlled_states"],
                   m["peak_nodes"], texts)

    collections = 0
    for forward, plant_inv in itertools.product(
        (False, True), ("implication", "restrict")
    ):
        config = SynthesisConfig.preset("v40")
        config.forward, config.plant_inv = forward, plant_inv
        m, want = run(config)
        assert m["collections"] == 0
        with monkeypatch.context() as patch:
            patch.setattr(bdd, "_COLLECT_RATIO", 0)
            patch.setattr(bdd, "_COLLECT_FLOOR", 0)
            patch.setattr(BddManager, "safe_point", counted)
            safe_points.clear()
            m, got = run(config)
        assert got == want, (forward, plant_inv)
        assert m["collections"] == len(safe_points)
        collections += len(safe_points)
    # chain's fixed points change nothing without the forward stage
    assert collections > 0
