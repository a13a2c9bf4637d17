"""Explicit-state reference implementation.

Everything the symbolic pipeline computes is recomputed here by brute
force over the enumerated state space: states are tuples of variable
values, transitions come from direct expression evaluation, and the
supervisor is the classic fixed point over explicit sets.  Tests compare
the symbolic results against these; nothing here shares code with the
BDD path beyond the linearized model and the expression evaluator.

The universe is every in-domain valuation (the declared ranges, not the
wider encoded ranges); states breaking a plant state invariant are
dropped up front, mirroring how the symbolic side treats the plant
invariant as the universe of discourse.

Memory is O(universe + transitions): each edge keeps a map from a state
index to its successors, with no entry for a state that has none, and
one pass over the states evaluates each state's valuation once for the
static sets and every edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    BoolDomain, EnumDomain, IntDomain, Variable, domain_size, eval_expr,
)
from .transform import LinearModel

__all__ = ["ExplicitOracle", "UniverseTooLarge"]


class UniverseTooLarge(Exception):
    pass


@dataclass
class _Edge:
    event: str
    controllable: bool
    is_input: bool
    # state index -> its non-empty plant-level successor list (guard, no
    # range error, in-domain target, plant event conditions); a state
    # without successors has no entry, so the map grows with the
    # transitions, not with the universe
    plant: dict[int, list[int]]
    # the same, additionally obeying requirement event conditions; the
    # very object ``plant`` when no requirement condition cut a transition
    allowed: dict[int, list[int]]


def _values(domain) -> list:
    if isinstance(domain, BoolDomain):
        return [0, 1]
    if isinstance(domain, IntDomain):
        return list(range(domain.lo, domain.hi + 1))
    return list(range(len(domain.literals)))


def _width(domain) -> int:
    return max(1, (domain_size(domain) - 1).bit_length())


class ExplicitOracle:
    """Explicit synthesis over an enumerated linearized model."""

    def __init__(self, model: LinearModel, cap: int = 10 ** 6):
        self.model = model
        names = [var.name for var in model.variables]
        domains = [var.domain for var in model.variables]
        total = 1
        for domain in domains:
            total *= domain_size(domain)
            if total > cap:
                raise UniverseTooLarge(
                    f"state space exceeds {cap} states"
                )
        self.names = names
        self._codes = model.codes

        def pred(expr, values):
            return bool(eval_expr(expr, values, {}, self._codes))

        plant_invs = [
            inv.predicate for inv in model.invariants
            if inv.kind == "state" and inv.side == "plant"
        ]
        req_invs = [
            inv.predicate for inv in model.invariants
            if inv.kind == "state" and inv.side != "plant"
        ]
        conditions: dict[tuple[str, str], list] = {}
        for inv in model.invariants:
            if inv.kind == "state":
                continue
            # supervisor-side conditions (re-read output models) restrict
            # like requirement-side ones
            side = "plant" if inv.side == "plant" else "requirement"
            entry = conditions.setdefault((side, inv.event), [])
            entry.append((inv.kind, inv.predicate))

        def condition_holds(side, event, values):
            for kind, predicate in conditions.get((side, event), []):
                holds = pred(predicate, values)
                if (kind == "needs" and not holds) or (
                    kind == "disables" and holds
                ):
                    return False
            return True

        # -- universe: in-domain valuations satisfying plant invariants
        def in_plant(combo):
            values = dict(zip(names, combo))
            return all(pred(p, values) for p in plant_invs)

        combos = itertools.product(*map(_values, domains))
        self.states: list[tuple] = (
            list(filter(in_plant, combos)) if plant_invs else list(combos)
        )
        self.index: dict[tuple, int] = {
            s: i for i, s in enumerate(self.states)
        }

        # -- one pass over the states: static sets and every transition
        controllable = {ev.name: ev.controllable for ev in model.events}
        at = {name: k for k, name in enumerate(names)}
        lows = [
            var.domain.lo if isinstance(var.domain, IntDomain) else 0
            for var in model.variables
        ]
        spans = [1 << _width(var.domain) for var in model.variables]
        steps = [
            (edge, controllable[edge.event],
             [(at[name], rhs) for name, rhs in edge.updates], {}, {})
            for edge in model.edges
        ]
        inputs = [
            (at[var.name], _values(var.domain), {})
            for var in model.variables if var.kind == "input"
        ]
        self.initial: set[int] = set()
        self.marked: set[int] = set()
        self.forbidden: set[int] = set()
        for i, s in enumerate(self.states):
            values = dict(zip(names, s))
            if pred(model.initial, values):
                self.initial.add(i)
            if pred(model.marked, values):
                self.marked.add(i)
            if any(not pred(p, values) for p in req_invs):
                self.forbidden.add(i)
            for edge, ctrl, updates, plant, allowed in steps:
                if not pred(edge.guard, values):
                    continue
                target = list(s)
                for k, rhs in updates:
                    target[k] = int(eval_expr(rhs, values, {}, self._codes))
                # encoded-range overflow: uncontrollable ones poison the state
                if any(
                    not 0 <= target[k] - lows[k] < spans[k] for k, _ in updates
                ):
                    if not ctrl:
                        self.forbidden.add(i)
                    continue
                if not condition_holds("plant", edge.event, values):
                    continue
                # a target outside the declared domains or the plant
                # invariants is not in the universe: no transition
                j = self.index.get(tuple(target))
                if j is None:
                    continue
                plant[i] = succs = [j]
                if condition_holds("requirement", edge.event, values):
                    allowed[i] = succs
                elif not ctrl:
                    # requirements cannot refuse what nobody can prevent
                    self.forbidden.add(i)
            for k, domain_values, plant in inputs:
                succs = []
                for value in domain_values:
                    if value != s[k]:
                        j = self.index.get(s[:k] + (value,) + s[k + 1:])
                        if j is not None:
                            succs.append(j)
                if succs:
                    plant[i] = succs

        self.edges: list[_Edge] = [
            _Edge(edge.event, ctrl, False, plant,
                  plant if len(allowed) == len(plant) else allowed)
            for edge, ctrl, _, plant, allowed in steps
        ]
        self.edges += [
            _Edge(f"input_{names[k]}", False, True, plant, plant)
            for k, _, plant in inputs
        ]

        self._synthesize()

    # -- set reachability helpers

    def _backward(
        self, start: set[int], edges: list[_Edge], within: set[int] | None
    ) -> set[int]:
        if within is not None:
            start = start & within
        pre: dict[int, list[int]] = {}
        for edge in edges:
            for src, dsts in edge.allowed.items():
                for dst in dsts:
                    pre.setdefault(dst, []).append(src)
        reach = set(start)
        frontier = list(start)
        while frontier:
            nxt = []
            for state in frontier:
                for src in pre.get(state, ()):
                    if src in reach or (within is not None and src not in within):
                        continue
                    reach.add(src)
                    nxt.append(src)
            frontier = nxt
        return reach

    def _forward(
        self, start: set[int], succ_of, within: set[int] | None
    ) -> set[int]:
        if within is not None:
            start = start & within
        reach = set(start)
        frontier = list(start)
        while frontier:
            nxt = []
            for state in frontier:
                for dst in succ_of(state):
                    if dst in reach or (within is not None and dst not in within):
                        continue
                    reach.add(dst)
                    nxt.append(dst)
            frontier = nxt
        return reach

    # -- synthesis

    def _synthesize(self) -> None:
        universe = set(range(len(self.states)))
        unc = [e for e in self.edges if not e.controllable]
        safe = universe - self.forbidden
        while True:
            safe = self._backward(self.marked, self.edges, safe)
            doomed = self._backward(universe - safe, unc, None)
            new_safe = universe - doomed
            if new_safe == safe:
                break
            safe = new_safe
        self.safe = safe
        self.controlled_initial = self.initial & safe
        self.nonempty = bool(self.controlled_initial)

        def supervised(state):
            for edge in self.edges:
                for dst in edge.allowed.get(state, ()):
                    if not edge.controllable or dst in self.safe:
                        yield dst

        self.controlled_reachable = self._forward(
            self.controlled_initial, supervised, safe
        )

        def plant_level(state):
            for edge in self.edges:
                yield from edge.plant.get(state, ())

        self.plant_reachable = self._forward(self.initial, plant_level, None)

    # -- queries used by tests and the command-line oracle

    def enabled_events(self, state: int) -> set[str]:
        """Events the supervised system can take from a controlled state."""
        out = set()
        for edge in self.edges:
            for dst in edge.allowed.get(state, ()):
                if not edge.controllable or dst in self.safe:
                    out.add(edge.event)
                    break
        return out

    def event_guard_states(self, event: str, within: set[int] | None = None) -> set[int]:
        """States where the supervisor leaves a controllable event enabled:
        the union over the event's edges of the states with a transition
        staying inside the safe set (or ``within``, for behaviors clipped
        by a forward pass).  That union is the preimage of the target set
        under the event's whole transition relation, which the symbolic
        guard matches under both granularities: per edge, as the union of
        one preimage per edge, and per event, as one preimage of the
        merged relation."""
        targets = self.safe if within is None else within
        out = set()
        for edge in self.edges:
            if edge.event != event:
                continue
            for src, dsts in edge.allowed.items():
                if any(dst in targets for dst in dsts):
                    out.add(src)
        return out

    def values_of(self, state: int) -> dict:
        return dict(zip(self.names, self.states[state]))

    def assignment_for(self, enc, state: int) -> dict[int, int]:
        """Even-level assignment for cross-checking BDD predicates."""
        out: dict[int, int] = {}
        for name, value in zip(self.names, self.states[state]):
            sym = enc.by_name[name]
            code = value - sym.lo
            for bit, lvl in enumerate(sym.levels):
                out[lvl] = code >> bit & 1
        return out
