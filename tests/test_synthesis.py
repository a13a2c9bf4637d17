"""Fixed-point synthesis: counting goldens and oracle equivalence."""

import dataclasses
import gc
import itertools
import weakref

import pytest

from efasynth.emit import emit
from efasynth.oracle import ExplicitOracle
from efasynth.parser import parse_file, parse_spec, unparse
from efasynth.synthesis import (
    PRESETS, FixedPointEngine, SynthesisConfig, synthesize,
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
        sym.initial, sym.edges, sym.manager.true, backward=True
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
    for oedge, sedge in zip(oracle.edges, result.edges):
        assert oedge.event == sedge.event
        if not sedge.controllable:
            continue
        for i in range(0, len(oracle.states), 3):
            enabled = mgr.evaluate(sedge.guard, oracle.assignment_for(enc, i))
            wants = any(j in oracle.safe for j in oedge.allowed[i])
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
    if field in ("granularity", "plant_inv"):
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
    # Temporary edge copies die between the two calls, so the second list
    # can reuse their ids; the relations must follow the edges' values.
    config = SynthesisConfig.preset("v40")
    sym = build_symbolic(
        producer_model, compute_order(producer_model, config.order),
        plant_inv=config.plant_inv, granularity=config.granularity,
    )
    mgr = sym.manager

    def plant_states(engine, guard):
        edges = [
            dataclasses.replace(e, guard=guard(e)) for e in sym.base_edges
        ]
        reach = engine.reach(sym.initial, edges, mgr.true, backward=False)
        return mgr.sat_count(reach, sym.enc.state_levels)

    engine = FixedPointEngine(sym, config)
    assert plant_states(engine, lambda e: mgr.false) == 1
    assert plant_states(engine, lambda e: e.guard_plant) == 482
    engine.close()


PHILOSOPHERS = """
controllable take_left_1, take_right_1, release_1,
             take_left_2, take_right_2, release_2;

plant phil_1 {
  location think:
    initial; marked;
    edge take_left_1 goto has_left;
    edge take_right_1 goto has_right;
  location has_left:
    edge take_right_1 goto eat;
  location has_right:
    edge take_left_1 goto eat;
  location eat:
    edge release_1 goto think;
}

plant phil_2 {
  location think:
    initial; marked;
    edge take_left_2 goto has_left;
    edge take_right_2 goto has_right;
  location has_left:
    edge take_right_2 goto eat;
  location has_right:
    edge take_left_2 goto eat;
  location eat:
    edge release_2 goto think;
}

plant fork_1 {
  location free:
    initial; marked;
    edge take_left_1 goto held;
    edge take_right_2 goto held;
  location held:
    edge release_1 goto free;
    edge release_2 goto free;
}

plant fork_2 {
  location free:
    initial; marked;
    edge take_left_2 goto held;
    edge take_right_1 goto held;
  location held:
    edge release_2 goto free;
    edge release_1 goto free;
}
"""

BOOL_CHAIN = """
controllable e_1, e_2, e_3, e_4;

plant chain {
  disc bool b_1 = false;
  disc bool b_2 = false;
  disc bool b_3 = false;
  disc bool b_4 = false;
  location s:
    initial; marked;
    edge e_1 do b_1 := true;
    edge e_2 when b_1 do b_2 := true;
    edge e_3 when b_2 do b_3 := true;
    edge e_4 when b_3 do b_4 := true;
}
"""

TANKS = """
controllable fill_1, open_1, fill_2, open_2;
uncontrollable drain_1, drain_2;
input enum {low, high} demand;

plant tank_1 {
  disc int[0..10] lvl_1 = 5;
  location closed:
    initial; marked;
    edge fill_1 do lvl_1 := lvl_1 + 3;
    edge open_1 goto draining;
  location draining:
    edge drain_1 when demand = low do lvl_1 := lvl_1 - 1 goto closed;
    edge drain_1 when demand = high do lvl_1 := lvl_1 - 2 goto closed;
}

plant tank_2 {
  disc int[0..10] lvl_2 = 5;
  location closed:
    initial; marked;
    edge fill_2 do lvl_2 := lvl_2 + 3;
    edge open_2 goto draining;
  location draining:
    edge drain_2 when demand = low do lvl_2 := lvl_2 - 1 goto closed;
    edge drain_2 when demand = high do lvl_2 := lvl_2 - 2 goto closed;
}

requirement pump {
  location idle:
    initial; marked;
    edge open_1 goto busy_1;
    edge open_2 goto busy_2;
  location busy_1:
    edge drain_1 goto idle;
  location busy_2:
    edge drain_2 goto idle;
}

requirement invariant lvl_1 >= 1;
requirement invariant fill_1 needs demand = low;
requirement invariant lvl_2 >= 1;
requirement invariant fill_2 needs demand = low;
"""


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


def reach_counts(result):
    """The state counts by ``FixedPointEngine.reach`` under the run's own
    configuration, over one relation per model edge."""
    sym = result.sym
    mgr = result.manager
    levels = sym.enc.state_levels
    engine = FixedPointEngine(sym, result.config)
    plant_edges = [
        dataclasses.replace(e, guard=e.guard_plant) for e in sym.base_edges
    ]
    us = engine.reach(sym.initial, plant_edges, mgr.true, backward=False)
    cs = engine.reach(
        sym.initial & result.controlled, result.edges, result.controlled,
        backward=False,
    )
    counts = (
        mgr.sat_count(us, levels),
        mgr.sat_count(cs, levels) if result.nonempty else 0,
    )
    engine.close()
    return counts


AGREEMENT_MODELS = [
    "agv_mutex", "cat_mouse", "dining_philosophers", "producer_consumer",
    "sensor_input", "empty", "philosophers", "chain", "tanks",
]


@pytest.mark.parametrize("name", AGREEMENT_MODELS)
def test_state_counts_agree_with_engine_reach(models_dir, name):
    # State counting has one method under every configuration; each run's
    # counts must equal those of the engine's reach under its own toggles.
    inline = {
        "empty": EMPTY, "philosophers": PHILOSOPHERS, "chain": BOOL_CHAIN,
        "tanks": TANKS,
    }
    text = inline.get(name) or (models_dir / f"{name}.efa").read_text()
    model = lin(parse_spec(text))
    for config in all_toggles():
        result = synthesize(model, config)
        m = result.metrics
        counts = (m["uncontrolled_states"], m["controlled_states"])
        assert counts == reach_counts(result), config


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


# Counters of the fixed-point driver per model and toggles (granularity,
# order and plant invariants at their v40 values).  They pin where the
# round-robin loops stop, including the bail-out on an empty supervisor;
# a change that moves any of them must say why.
# Columns: model, early_stop, forward, edge_apply, then operations and the
# stage operations (encode, nonblocking, controllability, forward or "-",
# strengthen), then sweeps, edge_applications, reach_calls, peak_nodes and
# controlled_states.
GOLDEN = """
agv_mutex           off off naive     2465 611  1653  145     -   44 2  52 4  417  91
agv_mutex           off off compound  1023 611   314   44     -   42 2  52 4  217  91
agv_mutex           off on  naive     5695 611  1997  249  2766   54 2 136 6  511  91
agv_mutex           off on  compound  1825 611   352   91   700   53 2 136 6  252  91
agv_mutex           on  off naive     1994 611  1182  145     -   44 1  23 2  405  91
agv_mutex           on  off compound   911 611   202   44     -   42 1  23 2  217  91
agv_mutex           on  on  naive     5195 611  1997  249  2266   54 2  87 5  510  91
agv_mutex           on  on  compound  1550 611   352   91   425   53 2  87 5  252  91
cat_mouse           off off naive      888 162   610   79     -   31 2  36 4  124   6
cat_mouse           off off compound   359 162   133   28     -   30 2  36 4   78   6
cat_mouse           off on  naive     1092 162   549   79   265   31 2  60 6  124   6
cat_mouse           off on  compound   390 162   133   28    31   30 2  60 6   78   6
cat_mouse           on  off naive      886 162   610   77     -   31 2  30 3  124   6
cat_mouse           on  off compound   357 162   133   26     -   30 2  30 3   78   6
cat_mouse           on  on  naive     1090 162   549   77   265   31 2  41 4  124   6
cat_mouse           on  on  compound   388 162   133   26    31   30 2  41 4   78   6
dining_philosophers off off naive    31648 605 29742  143     - 1145 2 270 4 1872 241
dining_philosophers off off compound  8865 605  6982  143     - 1122 2 270 4  982 241
dining_philosophers off on  naive    36432 605 28282  143  6256 1133 2 330 6 1872 241
dining_philosophers off on  compound  9204 605  6977  143   344 1122 2 330 6  982 241
dining_philosophers on  off naive    21269 605 19363  143     - 1145 1 125 2 1380 241
dining_philosophers on  off compound  5735 605  3852  143     - 1122 1 125 2  982 241
dining_philosophers on  on  naive    27513 605 19363  143  6256 1133 1 154 3 1765 241
dining_philosophers on  on  compound  6079 605  3852  143   344 1122 1 154 3  982 241
producer_consumer   off off naive     7421 875  5996  369     -  169 2 158 4  767 249
producer_consumer   off off compound  2965 875  1802  153     -  123 2 158 4  353 249
producer_consumer   off on  naive    20213 875  7354 1043 10667  253 2 354 6 1157 249
producer_consumer   off on  compound  7366 875  1785  460  3999  226 2 354 6  452 249
producer_consumer   on  off naive     5497 875  4072  369     -  169 1  79 2  603 249
producer_consumer   on  off compound  2247 875  1084  153     -  123 1  79 2  353 249
producer_consumer   on  on  naive    17524 875  7354 1043  7978  253 2 254 5 1045 249
producer_consumer   on  on  compound  5662 875  1785  460  2295  226 2 254 5  439 249
sensor_input        off off naive      576 187   352   21     -   13 2  20 4  148  30
sensor_input        off off compound   293 187    88    3     -   12 2  20 4   83  30
sensor_input        off on  naive     1435 187   458   98   667   20 2  60 6  194  30
sensor_input        off on  compound   515 187    89   26   188   20 2  60 6   90  30
sensor_input        on  off naive      527 187   303   21     -   13 1  10 2  148  30
sensor_input        on  off compound   276 187    71    3     -   12 1  10 2   83  30
sensor_input        on  on  naive     1316 187   458   98   548   20 2  38 5  180  30
sensor_input        on  on  compound   443 187    89   26   116   20 2  38 5   88  30
empty               off off naive       74  37    13   24     -    0 1   5 2   15   0
empty               off off compound    43  37     0    6     -    0 1   5 2   13   0
empty               off on  naive       74  37    13   24     0    0 1   5 2   15   0
empty               off on  compound    43  37     0    6     0    0 1   5 2   13   0
empty               on  off naive       74  37    13   24     -    0 1   5 2   15   0
empty               on  off compound    43  37     0    6     -    0 1   5 2   13   0
empty               on  on  naive       74  37    13   24     0    0 1   5 2   15   0
empty               on  on  compound    43  37     0    6     0    0 1   5 2   13   0
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
