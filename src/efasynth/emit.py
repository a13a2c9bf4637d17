"""Controlled-system model emission.

The output of a successful synthesis is the input specification with the
supervisor made explicit:

* native plant automata are kept as they are;
* plantified requirement automata are relabeled ``supervisor`` — they no
  longer restrict anything themselves, but the supervisor's guards refer
  to their locations, so they stay in the model as observers;
* one new supervisor automaton with a single initial+marked location
  self-loops on every controllable event, guarded by that event's
  synthesized guard lowered back to an expression;
* an initialization predicate pins the initial states to the synthesized
  behavior.

With simplification enabled, guards and the initialization predicate are
reduced relative to what already holds anyway, and the requirement-derived
invariants are kept (relabeled ``supervisor``) because the reduced guards
are only faithful inside that context.  A guard is reduced against the
emission's one care set, the domain and plant state invariants (``pp``)
and the synthesized behavior, conjoined with the disjunction of the
event's edge guards: those carry the plant's own guards and the
requirement conditions of the event.  With simplification disabled the raw
strengthened guards are self-contained, so the requirement-derived
invariants are dropped.

Emission's BDD work runs on an empty computed cache
(:meth:`BddManager.fresh_cache`), so its operation count depends only on
the supervisor it prints, not on how synthesis ran.
"""

from __future__ import annotations

import bisect
import dataclasses

from .bdd import NodeRef
from .encode import edges_by_event
from .model import (
    FALSE, TRUE, Automaton, BinaryOp, BoolDomain, Edge, EnumDomain, EnumLit,
    Expr, IntLit, Location, LocRef, Specification, UnaryOp, VarRef,
    fresh_name,
)
from .synthesis import SynthesisResult
from .transform import conj, disj

__all__ = ["emit", "lower_bdd_to_expr"]


def _int(value: int) -> Expr:
    if value < 0:
        return UnaryOp("-", IntLit(-value))
    return IntLit(value)


def lower_bdd_to_expr(f: NodeRef, enc) -> Expr:
    """Lower a state predicate to an expression over the model's variables.

    Each node of ``f`` that starts a variable's bits groups that
    variable's values by the cofactor they leave, which is a node starting
    a later variable; one walk of the variable's bits reads the groups off
    the diagram (:meth:`BddManager.cofactors`), so lowering does no BDD
    operation and costs the nodes of each block and the codes it lists,
    not one walk per value of the domain.  A group's membership test
    collapses to interval or equality comparisons where the values are
    contiguous, and location-pointer values print as location references.
    Agreement with the BDD on every in-domain state is the only contract —
    codes outside the declared domains (the encoded range may be wider)
    are dropped from every group, so the expression may disagree there.
    """
    mgr = enc.manager
    location_names = {
        aut: {code: name for name, code in table.items()}
        for aut, table in enc.model.location_codes.items()
    }

    def atom(sym, codes: list[int]) -> Expr:
        var = sym.var
        if len(codes) == sym.codes:
            return TRUE
        if var.kind == "pointer":
            names = location_names[var.owner]
            return disj([LocRef(var.owner, names[c]) for c in codes])
        ref = VarRef(var.name)
        if isinstance(var.domain, BoolDomain):
            return ref if codes == [1] else UnaryOp("not", ref)
        if isinstance(var.domain, EnumDomain):
            literals = var.domain.literals
            return disj([
                BinaryOp("=", ref, EnumLit(literals[c])) for c in codes
            ])
        runs = []
        start = prev = codes[0]
        for code in codes[1:]:
            if code == prev + 1:
                prev = code
                continue
            runs.append((start, prev))
            start = prev = code
        runs.append((start, prev))
        terms = []
        for a, b in runs:
            va, vb = a + sym.lo, b + sym.lo
            if va == vb:
                terms.append(BinaryOp("=", ref, _int(va)))
            elif va == var.domain.lo:
                terms.append(BinaryOp("<=", ref, _int(vb)))
            elif vb == var.domain.hi:
                terms.append(BinaryOp(">=", ref, _int(va)))
            else:
                terms.append(BinaryOp(
                    "and",
                    BinaryOp("<=", _int(va), ref),
                    BinaryOp("<=", ref, _int(vb)),
                ))
        return disj(terms)

    # Collect the nodes that start a variable's bits, each with the
    # variable's values grouped by their cofactor, in code order.
    groups: dict[NodeRef, tuple] = {}
    todo = [f]
    while todo:
        g = todo.pop()
        if g.is_false or g.is_true or g in groups:
            continue
        sym = enc.by_level[mgr.top_level(g)]
        by_child = {}
        for child, codes in mgr.cofactors(g, sym.levels).items():
            codes = codes[:bisect.bisect_left(codes, sym.codes)]
            if codes:  # else only codes outside the domain lead there
                by_child[child] = codes
        groups[g] = sym, by_child
        todo.extend(by_child)
    # A cofactor starts a later variable, so building in decreasing top
    # level finds every child's expression done.
    done = {mgr.true: TRUE, mgr.false: FALSE}
    for g in sorted(groups, key=mgr.top_level, reverse=True):
        sym, by_child = groups[g]
        done[g] = disj([
            conj([atom(sym, codes), done[child]])
            for child, codes in by_child.items()
        ])
    return done[f]


def emit(
    spec: Specification, result: SynthesisResult, simplify: bool = True
) -> Specification:
    """Build the controlled-system model from a plantified specification
    and its synthesis result.  Refuses an empty supervisor."""
    if not result.nonempty:
        raise ValueError("empty supervisor: no controlled behavior to emit")
    sym = result.sym
    enc = sym.enc
    mgr = sym.manager

    automata = []
    for aut in spec.automata:
        if aut.plantified:
            automata.append(dataclasses.replace(aut, kind="supervisor"))
        else:
            automata.append(aut)

    by_event = edges_by_event(sym.edges)
    alphabet = [ev.name for ev in spec.events if ev.controllable]
    edges = []
    with mgr.fresh_cache():
        care = sym.pp & result.controlled if simplify else None
        for name in alphabet:
            guard = result.event_guards[name]
            if simplify:
                occurs = mgr.false
                for edge in by_event.get(name, ()):
                    occurs = occurs | edge.guard
                assumption = occurs & care
                if not assumption.is_false:  # else the event never occurs
                    guard = mgr.restrict(guard, assumption)
            expr = lower_bdd_to_expr(guard, enc)
            edges.append(Edge("s0", [name], None if expr == TRUE else expr))
        init = result.initial
        if simplify:
            init = mgr.restrict(init, sym.initial)
        init_expr = lower_bdd_to_expr(init, enc)
    taken = {aut.name for aut in spec.automata}
    taken.update(var.name for var in spec.variables())
    taken.update(ev.name for ev in spec.events)
    automata.append(Automaton(
        fresh_name("sup", taken), "supervisor",
        locations=[Location("s0", initial=True, marked=True)],
        edges=edges, alphabet=alphabet,
    ))

    init_preds = list(spec.init_preds)
    if init_expr != TRUE:
        init_preds.append(init_expr)

    invariants = []
    for inv in spec.invariants:
        if inv.side == "plant":
            invariants.append(inv)
        elif simplify:
            invariants.append(dataclasses.replace(inv, side="supervisor"))

    return Specification(
        events=list(spec.events),
        automata=automata,
        input_vars=list(spec.input_vars),
        init_preds=init_preds,
        marker_preds=list(spec.marker_preds),
        invariants=invariants,
    )
