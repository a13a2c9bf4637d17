"""End-to-end acceptance checks, one test per headline property.

Everything here is deliberately self-contained (goldens inline, helpers
imported from the module suites) so a failing line names the broken
property directly.
"""

import dataclasses
import itertools
import random

import pytest

from efasynth.bdd import BddManager
from efasynth.encode import (
    Encoding, build_symbolic, compile_edges, edges_by_event,
)
from efasynth.model import BinaryOp, BoolLit, IntLit, VarRef, validate
from efasynth.oracle import ExplicitOracle
from efasynth.parser import parse_file, parse_spec, unparse
from efasynth.synthesis import (
    FixedPointEngine,
    SynthesisConfig,
    _event_guards,
    relations,
    synthesize,
)
from efasynth.emit import emit
from efasynth.transform import linearize, plantify
from efasynth.varorder import compute_order, dsm_matrix, hyperedges

from test_bdd import fresh, from_table, naive_image, naive_preimage, random_relation
from test_encode import MERGE_VARS, gapped_example_edges, merge_example_edges
from test_oracle import lin
from test_synthesis import CHAIN, strengthened_edges


# ----------------------------------------------------------------------
# 1. node counts are order-sensitive in the documented way


def test_bdd_node_count_depends_on_variable_order():
    mgr = fresh()
    a, b, c, d = (mgr.var(2 * i) for i in range(4))
    assert mgr.size((a & b) | (c & d)) == 4  # grouped order a < b < c < d
    a, c, b, d = (mgr.var(2 * i) for i in range(4))
    assert mgr.size((a & b) | (c & d)) == 6  # interleaved order a < c < b < d


# ----------------------------------------------------------------------
# 2. linearizing the two-automaton example gives the documented ten edges


def test_linearization_of_the_two_automaton_example(models_dir):
    model = lin(parse_file(models_dir / "producer_consumer.efa"))
    assert [e.event for e in model.edges] == [
        "start", "increase", "proceed", "produce",
        "decide", "decide", "decide", "decide",
        "reset", "again",
    ]

    lp, cp = "producer_lp", "consumer_lp"

    def eq(name, value):
        return BinaryOp("=", VarRef(name), IntLit(value))

    def conj(*parts):
        out = parts[0]
        for part in parts[1:]:
            out = BinaryOp("and", out, part)
        return out

    x, y, v = VarRef("x"), VarRef("y"), VarRef("v")
    expected = [
        # event, guard, updates
        ("start", eq(lp, 0), [(lp, IntLit(1)), ("v", BoolLit(True))]),
        ("increase", conj(eq(lp, 1), BinaryOp("<", x, IntLit(5))),
         [("x", BinaryOp("+", x, IntLit(1)))]),
        ("proceed", conj(eq(lp, 1), BinaryOp(">=", x, IntLit(4))),
         [(lp, IntLit(2))]),
        ("produce", conj(eq(cp, 0), v, BinaryOp(">", x, IntLit(0)),
                         BinaryOp("<", y, IntLit(8))),
         [(cp, IntLit(1)), ("y", BinaryOp("+", y, x))]),
        ("decide", conj(eq(lp, 2), eq("x", 4), eq(cp, 1)),
         [(lp, IntLit(3)), (cp, IntLit(2))]),
        ("decide", conj(eq(lp, 2), eq("x", 4), eq(cp, 1)),
         [(lp, IntLit(3)), (cp, IntLit(3))]),
        ("decide", conj(eq(lp, 2), eq("x", 5), eq(cp, 1)),
         [(lp, IntLit(4)), (cp, IntLit(2))]),
        ("decide", conj(eq(lp, 2), eq("x", 5), eq(cp, 1)),
         [(lp, IntLit(4)), (cp, IntLit(3))]),
        ("reset", eq(lp, 3),
         [(lp, IntLit(0)), ("v", BoolLit(False)), ("x", IntLit(0))]),
        ("again", eq(cp, 2), [(cp, IntLit(0))]),
    ]

    enc = Encoding(model, list(range(len(model.variables))))
    compiled = compile_edges(enc)
    for edge, (event, guard, updates) in zip(compiled, expected):
        assert edge.event == event
        assert edge.guard == enc.compile_pred(guard), event
        want = enc.manager.true
        for name, expr in updates:
            rel, _ = enc.assignment(name, expr)
            want = want & rel
        assert edge.update == want, event
        assert edge.assigned == frozenset(name for name, _ in updates), event


# ----------------------------------------------------------------------
# 3. pairwise variable relation weights of that example


def test_variable_relation_weights(models_dir):
    model = lin(parse_file(models_dir / "producer_consumer.efa"))
    weight = dsm_matrix(hyperedges(model), len(model.variables))
    pairs = sorted(
        (weight[i][j] for i in range(5) for j in range(i + 1, 5)), reverse=True
    )
    assert pairs == [7, 5, 4, 2, 2, 1, 1, 1, 1, 0]


# ----------------------------------------------------------------------
# 4. merging same-event edges builds the documented combined relation


def test_same_event_relation_merge():
    model = lin(parse_spec(MERGE_VARS))
    enc = Encoding(model, [0, 1, 2])
    mgr = enc.manager
    e1, e2 = merge_example_edges(enc)
    (merged,) = relations(enc, [("e", True)], [e1, e2], per_event=True)
    # each branch frames the variable that the other one assigns
    want = (e1.guard & e1.update & enc.frame("z")) | (
        e2.guard & e2.update & enc.frame("y")
    )
    assert merged.rel == want
    assert (merged.event, merged.controllable) == ("e", True)
    assert merged.assigned == frozenset({"y", "z"})
    assert merged.levels == tuple(
        lvl + 1 for name in ("y", "z") for lvl in enc.by_name[name].levels
    )
    # Images and preimages over the whole domain are the unions of the
    # branches', with guards that overlap (x <= 4, x >= 4) and with guards
    # that leave x = 3, 4 disabled (x <= 2, x >= 5).
    p = enc.domain_predicate()
    # y even and z odd, so every branch's assignment decides membership
    target = (p & mgr.nvar(enc.by_name["y"].levels[0])
              & mgr.var(enc.by_name["z"].levels[0]))
    for b1, b2 in ((e1, e2), gapped_example_edges(enc)):
        (merged,) = relations(enc, [("e", True)], [b1, b2], per_event=True)
        t1, t2 = b1.guard & b1.update, b2.guard & b2.update
        images = mgr.relnext(p, t1) | mgr.relnext(p, t2)
        assert not images.is_false
        assert mgr.relnext(p, merged.rel, assigned=merged.levels) == images
        pre = mgr.relprev(target, t1) | mgr.relprev(target, t2)
        assert not pre.is_false
        assert mgr.relprev(target, merged.rel, assigned=merged.levels) == pre


# ----------------------------------------------------------------------
# 5. range-error predicate of an increment over a three-bit encoding


def test_range_error_predicate():
    model = lin(parse_spec("""
        controllable step;
        plant p {
          disc int[0..5] y = 0;
          location l: initial; marked; edge step do y := y + 1;
        }
    """))
    enc = Encoding(model, [0])
    (edge,) = compile_edges(enc)
    mgr = enc.manager
    levels = enc.by_name["y"].levels
    assert len(levels) == 3
    # overflow of the encoded range: y + 1 > 7, i.e. exactly y = 7
    want = mgr.true
    for lvl in levels:
        want = want & mgr.var(lvl)
    assert edge.error == want
    for value in range(8):
        bits = {lvl: (value >> i) & 1 for i, lvl in enumerate(levels)}
        assert mgr.evaluate(edge.error, bits) == (value + 1 > 7)


# ----------------------------------------------------------------------
# 6. early stopping saves the documented edge applications


def test_early_stop_saves_edge_applications():
    model = lin(parse_spec(CHAIN))
    sym = build_symbolic(model, compute_order(model, "model"))
    fixed_points = {}
    applications = {}
    for early_stop in (False, True):
        config = SynthesisConfig(
            granularity="edge", edge_apply="naive", early_stop=early_stop
        )
        engine = FixedPointEngine(sym, config)
        fixed_points[early_stop] = engine.reach(
            sym.initial, engine.relations, sym.manager.true, backward=True
        )
        applications[early_stop] = engine.edge_applications
        engine.close()
    assert applications == {False: 18, True: 16}
    assert fixed_points[False] == fixed_points[True]
    assert sym.manager.sat_count(fixed_points[True], sym.enc.state_levels) == 8


# ----------------------------------------------------------------------
# 7. symbolic synthesis matches the explicit oracle on randomized models


def random_model_text(rng):
    """A small random specification: <= 6 variables, domains <= 4.

    Variables are writable only by the automaton that declares them, so
    each plant automaton gets its own; requirement automata stay pure
    observers (no variables, no updates).
    """
    events = [f"e{i}" for i in range(rng.randint(2, 4))]
    controllable = [events[0]] + [e for e in events[1:] if rng.random() < 0.6]
    uncontrollable = [e for e in events if e not in controllable]

    # automaton shapes first, so predicates can mention locations
    n_aut = rng.randint(1, 2)
    shapes = []
    for a in range(n_aut):
        kind = "requirement" if a == 1 and rng.random() < 0.35 else "plant"
        shapes.append((f"a{a}", kind, [f"l{k}" for k in range(rng.randint(1, 3))]))

    variables = []  # (kind, name, extra), readable everywhere
    owned = {aut: [] for aut, _, _ in shapes}  # writable locally
    decls = {aut: [] for aut, _, _ in shapes}
    budget = rng.randint(1, 2)
    plant_names = [aut for aut, kind, _ in shapes if kind == "plant"]
    for v in range(budget):
        owner = rng.choice(plant_names)
        kind = rng.choice(("int", "int", "bool", "enum"))
        name = f"x{v}"
        if kind == "int":
            hi = rng.randint(1, 3)
            decls[owner].append(f"  disc int[0..{hi}] {name} = {rng.randint(0, hi)};")
            spec = ("int", name, hi)
        elif kind == "bool":
            decls[owner].append(
                f"  disc bool {name} = {rng.choice(('true', 'false'))};"
            )
            spec = ("bool", name, None)
        else:
            lits = [f"q{v}_{j}" for j in range(rng.randint(2, 4))]
            decls[owner].append(
                f"  disc enum {{{', '.join(lits)}}} {name} = {rng.choice(lits)};"
            )
            spec = ("enum", name, lits)
        variables.append(spec)
        owned[owner].append(spec)

    input_line = ""
    if rng.random() < 0.4:
        hi = rng.randint(1, 2)
        input_line = f"input int[0..{hi}] s;"
        variables.append(("int", "s", hi))

    def atom():
        if rng.random() < 0.15:
            aut, _, locs = rng.choice(shapes)
            return f"{aut}.{rng.choice(locs)}"
        kind, name, extra = rng.choice(variables)
        if kind == "int":
            # mostly satisfiable comparisons, occasionally degenerate
            op = rng.choice(("=", "<", "<=", ">", ">="))
            lo = 1 if op == "<" and rng.random() < 0.8 else 0
            hi = extra - 1 if op == ">" and rng.random() < 0.8 else extra
            return f"{name} {op} {rng.randint(min(lo, hi), max(lo, hi))}"
        if kind == "bool":
            return name if rng.random() < 0.5 else f"not {name}"
        return f"{name} = {rng.choice(extra)}"

    def pred(depth=2):
        if depth == 0 or rng.random() < 0.45:
            return atom()
        return f"({pred(depth - 1)} {rng.choice(('and', 'or'))} {pred(depth - 1)})"

    def one_update(kind, name, extra):
        if kind == "int":
            roll = rng.random()
            if roll < 0.4:
                return f"{name} := {name} + 1"
            if roll < 0.55:
                return f"{name} := {name} - 1"
            return f"{name} := {rng.randint(0, extra)}"
        if kind == "bool":
            return f"{name} := {rng.choice(('true', 'false', 'not ' + name))}"
        return f"{name} := {rng.choice(extra)}"

    def edge_text(event, target, writable):
        parts = [f"edge {event}"]
        if rng.random() < 0.55:
            parts.append(f"when {pred()}")
        if writable and rng.random() < 0.6:
            count = rng.randint(1, min(2, len(writable)))
            picks = rng.sample(writable, count)
            parts.append("do " + ", ".join(one_update(*p) for p in picks))
        if target is not None:
            parts.append(f"goto {target}")
        return "    " + " ".join(parts) + ";"

    used = set()
    blocks = []
    for aut, kind, locs in shapes:
        writable = owned[aut]
        marked = {loc: rng.random() < 0.5 for loc in locs}
        if not any(marked.values()):
            marked[rng.choice(locs)] = True
        lines = [f"{kind} {aut} {{"]
        lines.extend(decls[aut])
        for k, loc in enumerate(locs):
            lines.append(f"  location {loc}:")
            if k == 0:
                lines.append("    initial;")
            if marked[loc]:
                lines.append("    marked;")
            for _ in range(rng.randint(1, 2)):
                event = rng.choice(events)
                used.add(event)
                target = rng.choice(locs) if rng.random() < 0.7 else None
                lines.append(edge_text(event, target, writable))
        if aut == shapes[-1][0]:
            for event in events:  # keep every declared event on some edge
                if event not in used:
                    used.add(event)
                    lines.append(edge_text(event, None, writable))
        lines.append("}")
        blocks.append("\n".join(lines))

    header = []
    if controllable:
        header.append("controllable " + ", ".join(controllable) + ";")
    if uncontrollable:
        header.append("uncontrollable " + ", ".join(uncontrollable) + ";")
    if input_line:
        header.append(input_line)

    tail = []
    if rng.random() < 0.45:
        tail.append(f"requirement invariant {pred()};")
    if rng.random() < 0.45:
        event = rng.choice(events)
        if rng.random() < 0.5:
            tail.append(f"requirement invariant {event} needs {pred()};")
        else:
            tail.append(f"requirement invariant {pred()} disables {event};")
    if rng.random() < 0.2:
        tail.append(f"plant invariant {pred()};")
    if rng.random() < 0.15:
        tail.append(f"marked {pred()};")

    return "\n".join(header) + "\n\n" + "\n\n".join(blocks) + "\n" + "\n".join(tail)


def assert_equivalent(result, oracle, config):
    """Set-level agreement between a symbolic run and the oracle.

    With the forward pass on, the fixed point is additionally clipped to
    the controlled reachable states, so that set (rather than the full
    safe set) is the reference for both the behavior and the guards.
    Count equality plus pointwise coverage gives set equality: the
    symbolic predicates are zero outside the in-domain universe.
    """
    assert result.nonempty == oracle.nonempty
    assert result.metrics["uncontrolled_states"] == len(oracle.plant_reachable)
    assert result.metrics["controlled_states"] == (
        len(oracle.controlled_reachable) if oracle.nonempty else 0
    )
    if not oracle.nonempty:
        return
    expected = oracle.controlled_reachable if config.forward else oracle.safe
    mgr, enc, sym = result.manager, result.sym.enc, result.sym
    inside = result.controlled & sym.pp
    assert mgr.sat_count(inside, enc.state_levels) == len(expected)
    for i in expected:
        assert mgr.evaluate(inside, oracle.assignment_for(enc, i)), (
            oracle.values_of(i)
        )
    for event, guard in result.event_guards.items():
        want = oracle.event_guard_states(event, within=expected)
        assert mgr.sat_count(guard & sym.pp, enc.state_levels) == len(want), event
        for i in want:
            assert mgr.evaluate(guard, oracle.assignment_for(enc, i)), (
                event, oracle.values_of(i),
            )


def test_symbolic_matches_explicit_oracle_on_randomized_models():
    # Bits a, b, c, d pick order, granularity, early stop and forward; the
    # two remaining toggles follow a^b^c and a^b^d, so the 16 rows still
    # cover every pair of values of any two of the six toggles.
    combos = [
        SynthesisConfig(
            order=("pipeline-v08", "pipeline-v40")[a],
            granularity=("edge", "event")[b],
            early_stop=bool(c), forward=bool(d),
            edge_apply=("compound", "naive")[a ^ b ^ c],
            plant_inv=("implication", "restrict")[a ^ b ^ d],
        )
        for a, b, c, d in itertools.product((0, 1), repeat=4)
    ]
    assert len(combos) == 16
    toggles = [dataclasses.astuple(config) for config in combos]
    for i, j in itertools.combinations(range(6), 2):
        assert len({(row[i], row[j]) for row in toggles}) == 4, (i, j)
    nonempty = 0
    for index in range(200):
        text = random_model_text(random.Random(31000 + index))
        spec = parse_spec(text, filename=f"random-{index}")
        assert validate(spec) == [], text
        model, diags = linearize(plantify(spec))
        assert diags == [], text
        oracle = ExplicitOracle(model, cap=10 ** 4)
        nonempty += oracle.nonempty
        for config in combos:
            result = synthesize(model, config)
            try:
                assert_equivalent(result, oracle, config)
            except AssertionError:
                print(f"-- model {index} under {config} --\n{text}")
                raise
    # the generator must exercise both outcomes
    assert 20 <= nonempty <= 195


# ----------------------------------------------------------------------
# 8. synthesis invariants hold on the shipped models


def test_synthesis_invariant_suite(models_dir):
    # BDD-level laws on random functions
    mgr = fresh(3)
    levels = [0, 2, 4]
    rng = random.Random(20260815)
    for _ in range(40):
        table = rng.randrange(1 << 8)
        f = from_table(mgr, levels, table)
        g = from_table(mgr, levels, rng.randrange(1 << 8))
        care = from_table(mgr, levels, rng.randrange(1, 1 << 8))
        rebuilt = mgr.false
        for i in range(8):
            if (table >> i) & 1:
                cube = mgr.true
                for j, lvl in enumerate(levels):
                    cube = cube & (mgr.var(lvl) if (i >> j) & 1 else mgr.nvar(lvl))
                rebuilt = rebuilt | cube
        assert rebuilt == f and rebuilt.node is f.node  # canonicity
        assert ~(~f | ~g) == f & g
        assert (mgr.restrict(f, care) & care) == (f & care)  # care-set law
        assigned = set(rng.sample(range(3), rng.randrange(4)))
        rel = random_relation(mgr, rng, assigned)
        assert mgr.relnext(f, rel) == naive_image(mgr, f, rel, assigned)
        assert mgr.relprev(f, rel) == naive_preimage(mgr, f, rel, assigned)

    # synthesis-level invariants
    for name in ("producer_consumer.efa", "agv_mutex.efa", "cat_mouse.efa"):
        spec = parse_file(models_dir / name)
        model = lin(spec)
        for preset in ("v08", "v40"):
            result = synthesize(model, SynthesisConfig.preset(preset))
            sym = result.sym
            mgr = result.manager
            behavior = result.controlled
            assert (behavior & sym.forbidden).is_false  # safety

            engine = FixedPointEngine(sym, result.config)
            # fixed-point idempotence of both stages
            rels = engine.relations
            assert engine.reach(sym.marked, rels, behavior, backward=True) == behavior
            unc = [r for r in rels if not r.controllable]
            bad = engine.reach(mgr.negate(behavior), unc, mgr.true, backward=True)
            assert mgr.negate(bad) == behavior

            # controllability, stated on raw transitions: no uncontrollable
            # step (and no uncontrollable range error) leaves the behavior
            per_edge = relations(sym.enc, sym.events, sym.edges, False)
            for edge, r in zip(sym.edges, per_edge):
                if edge.controllable and not edge.is_input:
                    continue
                assert (behavior & sym.pp & edge.error).is_false
                succ = mgr.relnext(behavior & sym.pp, r.rel, assigned=r.levels)
                assert (succ & sym.pp & mgr.negate(behavior)).is_false

            # nonblocking: every controlled reachable state coreaches a mark
            strengthened = relations(
                sym.enc, sym.events, strengthened_edges(result), False
            )
            # a reach may free the nodes no root holds, so the first set
            # is registered across the second reach
            reachable = mgr.register_root(engine.reach(
                sym.initial & behavior, strengthened, behavior, backward=False
            ))
            coreachable = engine.reach(
                sym.marked, rels, behavior, backward=True
            )
            assert (reachable & mgr.negate(coreachable)).is_false
            mgr.release_root(reachable)

            # guard strengthening shrinks each event's guard, monotonically
            # in the target
            tighter = _event_guards(engine, behavior & sym.marked)
            by_event = edges_by_event(sym.edges)
            for event, strong in result.event_guards.items():
                base = mgr.false
                for edge in by_event.get(event, ()):
                    base = base | edge.guard
                assert (strong & mgr.negate(base)).is_false
                assert (tighter[event] & mgr.negate(strong)).is_false
            engine.close()


# ----------------------------------------------------------------------
# 9. repeated runs are bit-identical


def test_runs_are_deterministic(models_dir):
    for name in ("producer_consumer.efa", "dining_philosophers.efa"):
        spec = parse_file(models_dir / name)
        model = lin(spec)
        for preset in ("v08", "v40"):
            first, second = (
                synthesize(model, SynthesisConfig.preset(preset)) for _ in range(2)
            )
            # count_s is the state count's wall time, the one metric that
            # is not a counter
            times = [r.metrics.pop("count_s") for r in (first, second)]
            assert all(t >= 0 for t in times)
            assert first.metrics == second.metrics
            if first.nonempty:
                assert unparse(emit(spec, first)) == unparse(emit(spec, second))


# ----------------------------------------------------------------------
# 10. the newer configuration bundle pays off on the shipped models


def test_config_bundle_improves_operation_counts(models_dir):
    shipped = sorted(
        p for p in models_dir.glob("*.efa") if not p.name.endswith(".sup.efa")
    )
    assert len(shipped) >= 4
    regressed = improved = 0
    for path in shipped:
        model = lin(parse_file(path))
        ops = {
            preset: synthesize(model, SynthesisConfig.preset(preset)).metrics[
                "operations"
            ]
            for preset in ("v08", "v40")
        }
        regressed += ops["v40"] > ops["v08"]
        improved += ops["v40"] < ops["v08"]
        for preset in ("v08", "v40"):
            applications = []
            for early_stop in (False, True):
                config = SynthesisConfig.preset(preset)
                config.early_stop = early_stop
                applications.append(
                    synthesize(model, config).metrics["edge_applications"]
                )
            assert applications[1] <= applications[0], path.name
    assert regressed <= 1
    assert improved >= (len(shipped) + 1) // 2


# ----------------------------------------------------------------------
# 11. the dining-philosophers model keeps its published state counts


def test_dining_philosophers_state_counts(models_dir):
    model = lin(parse_file(models_dir / "dining_philosophers.efa"))
    metrics = synthesize(model, SynthesisConfig.preset("v40")).metrics
    assert metrics["uncontrolled_states"] == 243
    assert metrics["controlled_states"] == 241
