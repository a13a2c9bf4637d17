"""Static variable-ordering heuristics for the symbolic encoding.

All heuristics work on the hypergraph whose vertices are the model's
variables and whose hyperedges are, per linearized edge, the variables it
reads or writes.  Orders are permutations of variable indices in model
order (pointers and discretes automaton by automaton, inputs last).

Two quality metrics drive the search: the total hyperedge span (used by
FORCE) and the weighted event span WES (used by DCSH candidate selection
and the sliding-window pass),

    WES = (1/|G|) * sum_h (2 * (hi_h + 1) / n) * (span_h / n)

where ``hi_h``/``span_h`` are the highest position and position spread of
hyperedge ``h`` under the candidate order and ``n`` the variable count.
The searches rank candidates by the exact integer

    key = sum_h (hi_h + 1) * span_h = WES * n**2 * |G| / 2

instead of the float :func:`wes`.  Both rank orders the same way, but
summing float terms can round two equal WES values apart, and a search
would then accept a move that does not lower the WES.  :func:`wes` stays for
reporting.

The sliding window scores a permutation of one window from tables.  Only
the hyperedges that touch the window can change, and a permutation moves
only their members inside it.  Per window, each touched hyperedge is
described once by its window-slot mask, the highest and lowest position
of its members outside the window, and the number of hyperedges with that
description.  One table per permutation, built once per pass, maps a slot
mask to the highest and lowest offset its slots move to, so a candidate's
key is a weighted sum of lookups.  Every tie anywhere breaks toward lower
model index or the first candidate, keeping results reproducible across
platforms.
"""

from __future__ import annotations

import itertools
from collections import deque

from .model import Expr, LocRef, VarRef, fold_expr
from .transform import LinearModel

__all__ = [
    "STRATEGIES", "OrderError", "check_strategy", "compute_order",
    "dsm_matrix", "expr_vars", "force", "hyperedges", "sliding_window",
    "total_span", "wes",
]


class OrderError(ValueError):
    """A strategy name or custom order that does not fit the model."""


STRATEGIES = (
    "model", "dcsh", "force", "sloan", "cm",
    "pipeline-v08", "pipeline-v40",
)

# Rounds of center-of-gravity placement FORCE tries at most.
_FORCE_ROUNDS = 20
# Sloan's weight of a vertex's degree against its distance to the end
# vertex, whose weight is 1.
_SLOAN_DEGREE_WEIGHT = 2


def expr_vars(expr: Expr, out: set[str]) -> set[str]:
    """Add the names of the variables ``expr`` reads to ``out``."""

    def leaf(node: Expr) -> None:
        if isinstance(node, VarRef):
            out.add(node.name)
        elif isinstance(node, LocRef):
            raise ValueError("location references must be linearized away first")

    fold_expr(expr, leaf, lambda *_: None, lambda *_: None)
    return out


def hyperedges(model: LinearModel) -> list[frozenset[int]]:
    """One variable set per linearized edge: guard, targets, and updates."""
    index = {var.name: i for i, var in enumerate(model.variables)}
    result = []
    for edge in model.edges:
        names: set[str] = set()
        expr_vars(edge.guard, names)
        for name, rhs in edge.updates:
            names.add(name)
            expr_vars(rhs, names)
        if names:
            result.append(frozenset(index[name] for name in names))
    return result


def _pair_weights(edges: list[frozenset[int]], n: int) -> list[dict[int, int]]:
    """Per vertex, how many hyperedges it shares with each co-occurring one."""
    weight: list[dict[int, int]] = [{} for _ in range(n)]
    for edge in edges:
        for i, j in itertools.combinations(edge, 2):
            weight[i][j] = weight[i].get(j, 0) + 1
            weight[j][i] = weight[j].get(i, 0) + 1
    return weight


def dsm_matrix(edges: list[frozenset[int]], n: int) -> list[list[int]]:
    """Symmetric co-occurrence counts: how many hyperedges share each pair."""
    matrix = [[0] * n for _ in range(n)]
    for row, weights in zip(matrix, _pair_weights(edges, n)):
        for j, count in weights.items():
            row[j] = count
    return matrix


def wes(order: list[int], edges: list[frozenset[int]]) -> float:
    if not edges:
        return 0.0
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    total = 0.0
    for edge in edges:
        places = [pos[v] for v in edge]
        hi, lo = max(places), min(places)
        total += (2 * (hi + 1) / n) * ((hi - lo) / n)
    return total / len(edges)


def total_span(order: list[int], edges: list[frozenset[int]]) -> int:
    pos = {v: i for i, v in enumerate(order)}
    return sum(
        max(pos[v] for v in edge) - min(pos[v] for v in edge) for edge in edges
    )


def _wes_key(pos, edges) -> int:
    """``sum_h (hi_h + 1) * (hi_h - lo_h)`` with ``pos`` mapping vertex to
    position: WES * n**2 * |G| / 2 as an exact integer (module docstring)."""
    total = 0
    for edge in edges:
        places = [pos[v] for v in edge]
        hi = max(places)
        total += (hi + 1) * (hi - min(places))
    return total


# ----------------------------------------------------------------------
# graph helpers


class _Graph:
    def __init__(self, edges: list[frozenset[int]], n: int):
        self.n = n
        self.edges = edges
        self.weight = _pair_weights(edges, n)
        self.adj = [sorted(weights) for weights in self.weight]
        self.degree = [len(nbrs) for nbrs in self.adj]

    def components(self) -> list[list[int]]:
        """Connected components, largest first, isolated vertices last."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = sorted(v for level in self._levels(start) for v in level)
            for v in comp:
                seen[v] = True
            comps.append(comp)
        comps.sort(key=lambda comp: (-len(comp), comp[0]))
        return comps

    def _levels(self, root: int) -> list[list[int]]:
        dist = {root: 0}
        levels = [[root]]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if dist[w] == len(levels):
                        levels.append([])
                    levels[dist[w]].append(w)
                    queue.append(w)
        return levels

    def pseudo_peripheral(self, comp: list[int]) -> tuple[int, int]:
        """A far-apart (start, end) pair via repeated level structures."""
        root = min(comp, key=lambda v: (self.degree[v], v))
        levels = self._levels(root)
        while True:
            far = min(levels[-1], key=lambda v: (self.degree[v], v))
            far_levels = self._levels(far)
            if len(far_levels) > len(levels):
                root, levels = far, far_levels
            else:
                return root, far

    def distances(self, root: int) -> dict[int, int]:
        levels = self._levels(root)
        return {v: d for d, level in enumerate(levels) for v in level}


def _cuthill_mckee(graph: _Graph, comp: list[int]) -> list[int]:
    """Weight-aware Cuthill-McKee: heavier neighbors first."""
    start, _ = graph.pseudo_peripheral(comp)
    visited = {start}
    order = []
    queue = deque([start])
    while queue:
        v = queue.popleft()
        order.append(v)
        nbrs = [w for w in graph.adj[v] if w not in visited]
        nbrs.sort(key=lambda w: (-graph.weight[v][w], graph.degree[w], w))
        visited.update(nbrs)
        queue.extend(nbrs)
    return order


def _sloan(graph: _Graph, comp: list[int]) -> list[int]:
    """Sloan profile reduction: balance distance-to-end against degree."""
    start, end = graph.pseudo_peripheral(comp)
    dist = graph.distances(end)
    INACTIVE, PREACTIVE, ACTIVE, POSTACTIVE = range(4)
    status = {v: INACTIVE for v in comp}
    w2 = _SLOAN_DEGREE_WEIGHT
    prio = {v: dist[v] - w2 * (graph.degree[v] + 1) for v in comp}
    status[start] = PREACTIVE
    queue = [start]
    order = []
    while queue:
        v = max(queue, key=lambda u: (prio[u], -u))
        queue.remove(v)
        if status[v] == PREACTIVE:
            for w in graph.adj[v]:
                prio[w] += w2
                if status[w] == INACTIVE:
                    status[w] = PREACTIVE
                    queue.append(w)
        status[v] = POSTACTIVE
        order.append(v)
        for w in graph.adj[v]:
            if status[w] == PREACTIVE:
                status[w] = ACTIVE
                prio[w] += w2
                for u in graph.adj[w]:
                    if status[u] != POSTACTIVE:
                        prio[u] += w2
                        if status[u] == INACTIVE:
                            status[u] = PREACTIVE
                            queue.append(u)
    return order


def _dcsh(graph: _Graph, comp: list[int]) -> list[int]:
    """The best of Cuthill-McKee, Sloan, and their reversals by WES."""
    members = set(comp)
    local = [e for e in graph.edges if e <= members]
    cm = _cuthill_mckee(graph, comp)
    sl = _sloan(graph, comp)
    return min(
        [cm, sl, cm[::-1], sl[::-1]],
        key=lambda cand: _wes_key({v: i for i, v in enumerate(cand)}, local),
    )


def _by_component(edges: list[frozenset[int]], n: int, order_comp) -> list[int]:
    """The components of the variable graph, largest first, each ordered by
    ``order_comp(graph, comp)``; an isolated vertex stays as it is."""
    graph = _Graph(edges, n)
    return [v for comp in graph.components()
            for v in (order_comp(graph, comp) if len(comp) > 1 else comp)]


# The strategies that order each component on its own.
_COMPONENT_ORDERS = {"dcsh": _dcsh, "sloan": _sloan, "cm": _cuthill_mckee}


def force(order: list[int], edges: list[frozenset[int]]) -> list[int]:
    """Iterated center-of-gravity placement; returns the best order seen
    by total hyperedge span (the initial order counts)."""
    best, best_span = list(order), total_span(order, edges)
    current = list(order)
    for _ in range(_FORCE_ROUNDS):
        pos = {v: i for i, v in enumerate(current)}
        pulls: dict[int, list[float]] = {}
        for edge in edges:
            cog = sum(pos[v] for v in edge) / len(edge)
            for v in edge:
                pulls.setdefault(v, []).append(cog)
        current = sorted(
            current,
            key=lambda v: (
                sum(pulls[v]) / len(pulls[v]) if v in pulls else float(pos[v]),
                pos[v],
            ),
        )
        span = total_span(current, edges)
        if span < best_span:
            best, best_span = list(current), span
        if all(pos[v] == i for i, v in enumerate(current)):
            break  # fixed point, further rounds change nothing
    return best


def sliding_window(
    order: list[int], edges: list[frozenset[int]], width: int = 4
) -> list[int]:
    """One left-to-right pass permuting each ``width`` consecutive variables
    to the arrangement with the lowest WES; keeps only strict improvements,
    the first one found among equals.

    ``order`` must be a permutation of ``range(len(order))``.  Candidates
    are compared by the exact integer WES key of the hyperedges that touch
    the window, the only ones a permutation of it can change, scored from
    slot tables (module docstring)."""
    order = list(order)
    n = len(order)
    width = min(width, n)
    # a singleton hyperedge spans nothing wherever it sits
    spread = [edge for edge in edges if len(edge) > 1]
    if width < 2 or not spread:
        return order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, edge in enumerate(spread):
        for v in edge:
            incident[v].append(e)
    perms = list(itertools.permutations(range(width)))  # identity first
    # Per permutation, each nonempty set of window slots (a bit mask) maps
    # to the highest and lowest offset its slots move to.
    tables = []
    for perm in perms:
        offset = [0] * width
        for k, i in enumerate(perm):
            offset[i] = k
        table = [(0, 0)] * (1 << width)
        for mask in range(1, 1 << width):
            offs = [offset[i] for i in range(width) if mask >> i & 1]
            table[mask] = (max(offs), min(offs))
        tables.append(table)
    for at in range(n - width + 1):
        end = at + width
        # A touched hyperedge is its slot mask plus the highest and lowest
        # position of its members outside the window (-1 and n if none);
        # equal descriptions merge into one weighted term.
        weight: dict[tuple[int, int, int], int] = {}
        for e in {e for v in order[at:end] for e in incident[v]}:
            mask, out_hi, out_lo = 0, -1, n
            for v in spread[e]:
                p = pos[v]
                if at <= p < end:
                    mask |= 1 << (p - at)
                else:
                    if p > out_hi:
                        out_hi = p
                    if p < out_lo:
                        out_lo = p
            desc = (mask, out_hi, out_lo)
            weight[desc] = weight.get(desc, 0) + 1
        terms = [(w, *desc) for desc, w in weight.items()]
        best, best_key = 0, None
        for choice, table in enumerate(tables):
            key = 0
            for w, mask, out_hi, out_lo in terms:
                top, bottom = table[mask]
                hi = at + top
                if out_hi > hi:
                    hi = out_hi
                lo = at + bottom
                if out_lo < lo:
                    lo = out_lo
                key += w * (hi + 1) * (hi - lo)
            if best_key is None or key < best_key:
                best, best_key = choice, key
        if best:
            window = order[at:end]
            for k, i in enumerate(perms[best]):
                order[at + k] = window[i]
                pos[window[i]] = at + k
    return order


def check_strategy(strategy: str) -> None:
    """Raise :class:`OrderError` unless ``strategy`` is one of
    :data:`STRATEGIES` or a ``custom:`` order."""
    if strategy not in STRATEGIES and not strategy.startswith("custom:"):
        raise OrderError(f"unknown ordering strategy '{strategy}'")


def compute_order(
    model: LinearModel, strategy: str,
    edges: list[frozenset[int]] | None = None,
) -> list[int]:
    """Variable order per strategy name; see :data:`STRATEGIES`.

    ``custom:a,b,c`` orders the named variables explicitly (all of them,
    each exactly once).  ``edges`` are the model's :func:`hyperedges`, for
    a caller that has them already.
    """
    check_strategy(strategy)
    n = len(model.variables)
    base = list(range(n))
    if strategy.startswith("custom:"):
        names = [s.strip() for s in strategy[len("custom:"):].split(",") if s.strip()]
        index = {var.name: i for i, var in enumerate(model.variables)}
        unknown = [name for name in names if name not in index]
        if unknown:
            raise OrderError(f"unknown variable(s) in custom order: {', '.join(unknown)}")
        if sorted(index[name] for name in names) != base:
            raise OrderError("custom order must list every variable exactly once")
        return [index[name] for name in names]
    if edges is None:
        edges = hyperedges(model)
    if strategy == "model":
        return base
    if strategy in _COMPONENT_ORDERS:
        return _by_component(edges, n, _COMPONENT_ORDERS[strategy])
    if strategy == "force":
        return force(base, edges)
    if strategy == "pipeline-v08":
        return sliding_window(force(base, edges), edges)
    # v40
    return sliding_window(force(_by_component(edges, n, _dcsh), edges), edges)
