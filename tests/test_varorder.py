"""Ordering heuristics: hypergraph extraction, metrics, and strategies."""

import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from efasynth.parser import parse_file, parse_spec
from efasynth.transform import linearize, plantify
from efasynth.varorder import (
    STRATEGIES, compute_order, dsm_matrix, force, hyperedges, sliding_window,
    total_span, wes,
)


def lin(models_dir):
    spec = parse_file(models_dir / "producer_consumer.efa")
    model, diags = linearize(plantify(spec))
    assert diags == []
    return model


def test_hyperedges_of_producer_consumer(models_dir):
    model = lin(models_dir)
    assert [v.name for v in model.variables] == [
        "producer_lp", "v", "x", "consumer_lp", "y",
    ]
    assert hyperedges(model) == [
        frozenset({0, 1}),
        frozenset({0, 2}), frozenset({0, 2}),
        frozenset({1, 2, 3, 4}),
        frozenset({0, 2, 3}), frozenset({0, 2, 3}),
        frozenset({0, 2, 3}), frozenset({0, 2, 3}),
        frozenset({0, 1, 2}),
        frozenset({3}),
    ]


def test_dsm_weights_of_producer_consumer(models_dir):
    weight = dsm_matrix(hyperedges(lin(models_dir)), 5)
    assert weight[0][2] == 7  # pointer of the producer with x, heaviest pair
    assert weight[0][1] == 2 and weight[0][3] == 4 and weight[0][4] == 0
    assert weight[1][2] == 2 and weight[1][3] == 1 and weight[1][4] == 1
    assert weight[2][3] == 5 and weight[2][4] == 1 and weight[3][4] == 1
    assert all(weight[i][j] == weight[j][i] for i in range(5) for j in range(5))
    assert all(weight[i][i] == 0 for i in range(5))


def test_wes_of_declaration_order(models_dir):
    edges = hyperedges(lin(models_dir))
    assert wes([0, 1, 2, 3, 4], edges) == pytest.approx(0.664)
    assert total_span([0, 1, 2, 3, 4], edges) == 1 + 2 + 2 + 3 + 3 * 4 + 2 + 0


PATH = [  # a path graph 0-2-4-1-3 written as two-variable hyperedges
    frozenset({0, 2}), frozenset({2, 4}), frozenset({4, 1}), frozenset({1, 3}),
]


def test_cuthill_mckee_orders_a_path():
    model = parse_spec("controllable a; plant p { location l: initial; marked; edge a; }")
    linear, _ = linearize(plantify(model))
    # bypass extraction, drive the strategy helpers directly
    from efasynth.varorder import _Graph, _cuthill_mckee, _sloan

    graph = _Graph(PATH, 5)
    (comp,) = graph.components()
    assert _cuthill_mckee(graph, comp) == [0, 2, 4, 1, 3]
    assert _sloan(graph, comp) == [0, 2, 4, 1, 3]


def test_force_never_worsens_total_span():
    base = [0, 1, 2, 3, 4]
    ordered = force(base, PATH)
    assert sorted(ordered) == base
    assert total_span(ordered, PATH) <= total_span(base, PATH)


def test_sliding_window_never_worsens_wes(models_dir):
    edges = hyperedges(lin(models_dir))
    base = [4, 3, 2, 1, 0]
    out = sliding_window(base, edges)
    assert sorted(out) == [0, 1, 2, 3, 4]
    assert wes(out, edges) <= wes(base, edges)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_return_permutations(models_dir, strategy):
    model = lin(models_dir)
    order = compute_order(model, strategy)
    assert sorted(order) == list(range(5))
    assert order == compute_order(model, strategy)  # deterministic


def test_model_strategy_is_declaration_order(models_dir):
    assert compute_order(lin(models_dir), "model") == [0, 1, 2, 3, 4]


def test_custom_order(models_dir):
    model = lin(models_dir)
    order = compute_order(model, "custom:y,x,v,producer_lp,consumer_lp")
    assert order == [4, 2, 1, 0, 3]
    with pytest.raises(ValueError, match="unknown variable"):
        compute_order(model, "custom:nope")
    with pytest.raises(ValueError, match="every variable exactly once"):
        compute_order(model, "custom:x,y")


def test_unused_variables_order_last():
    spec = parse_spec(
        """
        controllable a;
        plant p {
          disc int[0..3] used = 0;
          disc int[0..3] spare = 0;
          disc bool flag = false;
          location l: initial; marked;
          edge a when used < 3 do used := used + 1, flag := true;
        }
        """
    )
    model, _ = linearize(plantify(spec))
    # 'spare' occurs in no hyperedge, so every strategy pushes it behind
    # the connected component {used, flag}
    for strategy in ("dcsh", "cm", "sloan"):
        assert compute_order(model, strategy)[-1] == 1, strategy


def test_pipelines_improve_or_match_wes(models_dir):
    model = lin(models_dir)
    edges = hyperedges(model)
    base_wes = wes(compute_order(model, "model"), edges)
    for strategy in ("pipeline-v08", "pipeline-v40"):
        assert wes(compute_order(model, strategy), edges) <= base_wes


@given(st.permutations(range(6)))
def test_sliding_window_output_beats_or_ties_input(start):
    edges = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5})]
    out = sliding_window(list(start), edges)
    assert wes(out, edges) <= wes(list(start), edges)
    assert sorted(out) == list(range(6))


def exact_key(order, edges):
    """WES * n**2 * |G| / 2, computed from scratch for one whole order."""
    pos = {v: i for i, v in enumerate(order)}
    total = 0
    for edge in edges:
        hi = max(pos[v] for v in edge)
        total += (hi + 1) * (hi - min(pos[v] for v in edge))
    return total


def reference_sliding_window(order, edges, width):
    """The window walk scoring every whole candidate order by its exact key;
    strict improvements only, the first of equals wins."""
    order = list(order)
    width = min(width, len(order))
    current = exact_key(order, edges)
    for at in range(len(order) - width + 1):
        window = order[at:at + width]
        best, best_key = None, current
        for perm in itertools.permutations(window):
            if list(perm) == window:
                continue
            candidate = order[:at] + list(perm) + order[at + width:]
            key = exact_key(candidate, edges)
            if key < best_key:
                best, best_key = candidate, key
        if best is not None:
            order, current = best, best_key
    return order


@st.composite
def window_cases(draw):
    n = draw(st.integers(2, 14))
    # singletons allowed; vertices in no hyperedge stay isolated
    edges = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
        max_size=20,
    ))
    start = draw(st.permutations(range(n)))
    width = draw(st.integers(2, 5))
    return list(start), edges, width


def edge_list(*members):
    return [frozenset(edge) for edge in members]


# One two-variable hyperedge two or three times among singletons: the
# window pass merges equal hyperedges into one weighted term, and random
# draws rarely repeat a hyperedge.  On each case, scoring the hyperedges
# once each chooses a different order.
REPEATED_EDGE_CASES = [
    ([2, 0, 5, 4, 3, 6, 1], edge_list({1, 4}, {1, 4}, {1, 4}, {4}, {2, 4}), 2),
    ([2, 0, 1], edge_list({1, 2}, {2}, {2}, {0, 1}, {2}, {1, 2}), 2),
    ([5, 3, 0, 1, 2, 4], edge_list({0, 2}, {0, 2}, {3, 5}, {4}), 5),
    ([4, 2, 0, 5, 1, 3], edge_list(
        {3}, {2, 5}, {0}, {2, 3}, {1}, {1}, {2, 3}, {2, 3}), 5),
]


@settings(deadline=None)
@given(window_cases())
@example(REPEATED_EDGE_CASES[0])
@example(REPEATED_EDGE_CASES[1])
@example(REPEATED_EDGE_CASES[2])
@example(REPEATED_EDGE_CASES[3])
def test_sliding_window_matches_exact_reference(case):
    start, edges, width = case
    assert sliding_window(start, edges, width) == reference_sliding_window(
        start, edges, width)


# Two orders with the same exact key, 405, whose float WES sums round to
# 0.4999999999999999 and 0.5: a float comparison took the last move.
FLOAT_TIE_START = [1, 4, 6, 7, 0, 3, 5, 2, 8]
FLOAT_TIE_EDGES = [frozenset(e) for e in (
    {0, 1, 5}, {0, 2, 3}, {0, 1, 2}, {0, 3, 6}, {5}, {2, 4, 5, 7}, {3}, {7},
    {0, 1, 3, 6}, {1, 8}, {4, 6}, {0, 3, 4, 8}, {3, 5, 6}, {5}, {6, 8},
    {0, 6}, {1, 6}, {6}, {1, 2, 7}, {0},
)]


def test_sliding_window_rejects_a_float_rounding_move():
    out = sliding_window(FLOAT_TIE_START, FLOAT_TIE_EDGES, 3)
    assert out == [4, 7, 6, 3, 0, 1, 2, 5, 8]
    rounded = [4, 7, 6, 3, 0, 1, 8, 2, 5]
    assert exact_key(out, FLOAT_TIE_EDGES) == exact_key(rounded, FLOAT_TIE_EDGES) == 405
    assert wes(rounded, FLOAT_TIE_EDGES) < wes(out, FLOAT_TIE_EDGES) == 0.5


def test_ordering_a_long_chain_is_fast():
    # scoring every window permutation over all hyperedges made this pass
    # quadratic: over a minute at this size
    n = 1500
    edges = [frozenset({0})] + [frozenset({i - 1, i}) for i in range(1, n)]
    began = time.perf_counter()
    order = sliding_window(force(list(range(n)), edges), edges)
    elapsed = time.perf_counter() - began
    assert order == list(range(n))
    assert elapsed < 3.0
