"""Model-to-model transformations ahead of the symbolic encoding.

``plantify`` moves the restrictive power of requirement automata into
event-condition invariants, leaving only plant automata behind: every
requirement automaton keeps tracking the events it observes (self-loops
cover the formerly blocked cases), and a generated ``... disables σ``
requirement invariant forbids exactly the transitions the original
automaton would have refused.

``linearize`` then collapses the synchronous product into a flat list of
guarded update edges over plain variables.  Each multi-location automaton
gets a location-pointer variable; ``automaton.location`` tests become
pointer comparisons; an edge of the product conjoins one participating
edge per automaton whose alphabet contains the event.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .model import (
    FALSE, TRUE, Automaton, BinaryOp, Diagnostic, Edge, EnumLit, Event, Expr,
    IntDomain, IntLit, Invariant, LocRef, Location, Specification, UnaryOp,
    VarRef, Variable, fresh_name, literal_codes, map_leaves,
)

__all__ = ["LinEdge", "LinearModel", "conj", "disj", "linearize",
           "linearized_spec", "plantify"]


def _join(op: str, unit: Expr, zero: Expr, terms: list[Expr]) -> Expr:
    """``terms`` joined left-deep by ``op``, leaving out the unit."""
    terms = [t for t in terms if t != unit]
    if not terms:
        return unit
    if zero in terms:
        return zero
    return functools.reduce(lambda node, t: BinaryOp(op, node, t), terms)


def conj(terms: list[Expr]) -> Expr:
    return _join("and", TRUE, FALSE, terms)


def disj(terms: list[Expr]) -> Expr:
    return _join("or", FALSE, TRUE, terms)


# ----------------------------------------------------------------------
# plantification


def plantify(spec: Specification) -> Specification:
    """Rewrite requirement automata as non-restrictive plants.

    For every location and alphabet event of a requirement automaton, a
    self-loop guarded by the negation of the existing guards keeps the
    event possible, and a requirement invariant ``(location and no guard
    held) disables event`` reinstates the restriction.  Edges with an
    always-true guard need neither.  The transformed automata are tagged
    ``plantified`` so later stages can tell them from native plants.
    """
    out = Specification(
        events=list(spec.events),
        input_vars=list(spec.input_vars),
        init_preds=list(spec.init_preds),
        marker_preds=list(spec.marker_preds),
        invariants=list(spec.invariants),
    )
    for aut in spec.automata:
        if aut.kind != "requirement":
            out.automata.append(aut)
            continue
        new = Automaton(
            aut.name,
            "plant",
            variables=list(aut.variables),
            locations=list(aut.locations),
            edges=list(aut.edges),
            alphabet=list(aut.alphabet) if aut.alphabet is not None else None,
            plantified=True,
            span=aut.span,
        )
        alphabet = aut.alphabet_of(spec)
        guards_at: dict[tuple[str, str], list[Expr]] = {}
        for edge in aut.edges:
            for event in set(edge.events):
                guards_at.setdefault((edge.source, event), []).append(
                    edge.guard if edge.guard is not None else TRUE
                )
        for loc in aut.locations:
            for event in alphabet:
                guards = guards_at.get((loc.name, event), [])
                if TRUE in guards:
                    continue  # the event is never blocked here
                blocked = UnaryOp("not", disj(guards)) if guards else TRUE
                new.edges.append(Edge(loc.name, [event], blocked, [], None))
                out.invariants.append(
                    Invariant(
                        "disables",
                        "requirement",
                        conj([LocRef(aut.name, loc.name), blocked]),
                        event,
                    )
                )
        out.automata.append(new)
    return out


# ----------------------------------------------------------------------
# linearization


@dataclass
class LinEdge:
    event: str
    guard: Expr
    updates: list[tuple[str, Expr]] = field(default_factory=list)


@dataclass
class LinearModel:
    events: list[Event]
    variables: list[Variable]  # pointers and discs in model order, inputs last
    edges: list[LinEdge]
    initial: Expr
    marked: Expr
    invariants: list[Invariant]
    pointers: dict[str, str]  # automaton name -> pointer variable
    location_codes: dict[str, dict[str, int]]
    codes: dict[str, int]  # enumeration literal -> index


def linearize(spec: Specification) -> tuple[LinearModel, list[Diagnostic]]:
    """Flatten a plantified specification into guarded update edges.

    Edges of one event are combined across every automaton whose alphabet
    contains it, leftmost automaton outermost, in location/edge declaration
    order; an event missing from all alphabets is reported.  Initial and
    marked predicates conjoin the per-automaton location status, declared
    initial values, and component-level predicates.
    """
    diags: list[Diagnostic] = []
    taken = {v.name for v in spec.variables()} | {a.name for a in spec.automata}
    pointers: dict[str, str] = {}
    location_codes: dict[str, dict[str, int]] = {}
    variables: list[Variable] = []
    tests: dict[tuple[str, str], Expr] = {}  # pointer test per location

    for aut in spec.automata:
        location_codes[aut.name] = codes = {
            loc.name: idx for idx, loc in enumerate(aut.locations)
        }
        pointer = None
        if len(aut.locations) > 1:
            pointer = pointers[aut.name] = fresh_name(f"{aut.name}_lp", taken)
            variables.append(
                Variable(pointer, IntDomain(0, len(aut.locations) - 1),
                         kind="pointer", owner=aut.name)
            )
        for loc, code in codes.items():  # a single location is always current
            tests[aut.name, loc] = TRUE if pointer is None else BinaryOp(
                "=", VarRef(pointer), IntLit(code)
            )
        variables.extend(aut.variables)
    variables.extend(spec.input_vars)

    def locate(node: Expr) -> Expr:
        if isinstance(node, LocRef):
            return tests[node.automaton, node.location]
        return node

    rewrite = functools.partial(map_leaves, replace=locate)

    # Synchronized product, one event at a time: each automaton's edges
    # grouped by event, in location order (stable within a location).
    alphabets = {aut.name: set(aut.alphabet_of(spec)) for aut in spec.automata}
    edges_of: dict[tuple[str, str], list[Edge]] = {}
    for aut in spec.automata:
        order = location_codes[aut.name]
        for edge in sorted(aut.edges, key=lambda e: order[e.source]):
            for name in set(edge.events):
                edges_of.setdefault((aut.name, name), []).append(edge)
    edges: list[LinEdge] = []
    for event in spec.events:
        parts = [aut for aut in spec.automata if event.name in alphabets[aut.name]]
        if not parts:
            diags.append(
                Diagnostic(
                    f"event '{event.name}' is in no automaton's alphabet",
                    event.span,
                )
            )
            continue
        per_aut = [edges_of.get((aut.name, event.name), []) for aut in parts]
        for combo in itertools.product(*per_aut):
            guard_terms = []
            updates = []
            for aut, edge in zip(parts, combo):
                guard_terms.append(tests[aut.name, edge.source])
                if edge.guard is not None:
                    guard_terms.append(rewrite(edge.guard))
                target = edge.target_or_source()
                if target != edge.source and pointers.get(aut.name):
                    updates.append(
                        (pointers[aut.name],
                         IntLit(location_codes[aut.name][target]))
                    )
                updates.extend(
                    (name, rewrite(rhs)) for name, rhs in edge.updates
                )
            edges.append(LinEdge(event.name, conj(guard_terms), updates))

    # Initialization and marking.
    init_terms = []
    marked_terms = []
    for aut in spec.automata:
        for status, terms in (("initial", init_terms), ("marked", marked_terms)):
            options = []
            for loc in aut.locations:
                cond = getattr(loc, status)
                if cond is None:
                    continue
                here = tests[aut.name, loc.name]
                if cond is True:
                    options.append(here)
                else:
                    options.append(conj([here, rewrite(cond)]))
            terms.append(disj(options))
    for var in variables:
        if var.kind == "pointer" or not var.initial:
            continue
        options = []
        for value in var.initial:
            if value is True:
                options.append(VarRef(var.name))
            elif value is False:
                options.append(UnaryOp("not", VarRef(var.name)))
            elif isinstance(value, str):
                options.append(BinaryOp("=", VarRef(var.name), EnumLit(value)))
            else:
                options.append(BinaryOp("=", VarRef(var.name), IntLit(value)))
        init_terms.append(disj(options))
    init_terms.extend(rewrite(p) for p in spec.init_preds)
    marked_terms.extend(rewrite(p) for p in spec.marker_preds)

    invariants = [
        Invariant(inv.kind, inv.side, rewrite(inv.predicate), inv.event)
        for inv in spec.invariants
    ]

    model = LinearModel(
        events=list(spec.events),
        variables=variables,
        edges=edges,
        initial=conj(init_terms),
        marked=conj(marked_terms),
        invariants=invariants,
        pointers=pointers,
        location_codes=location_codes,
        codes=literal_codes(spec),
    )
    return model, diags


def linearized_spec(model: LinearModel) -> Specification:
    """Repackage a linear model as a one-automaton specification.

    Useful for dumping the linearization to model text: pointer variables
    become plain discrete variables and every edge is a self-loop on the
    single location.
    """
    aut = Automaton("linearized", "plant", locations=[Location("l", initial=True, marked=True)])
    for var in model.variables:
        if var.kind == "input":
            continue
        aut.variables.append(
            Variable(var.name, var.domain, kind="disc", initial=var.initial,
                     owner="linearized")
        )
    for edge in model.edges:
        aut.edges.append(
            Edge("l", [edge.event],
                 None if edge.guard == TRUE else edge.guard,
                 list(edge.updates), None)
        )
    out = Specification(
        events=list(model.events),
        automata=[aut],
        input_vars=[v for v in model.variables if v.kind == "input"],
        init_preds=[] if model.initial == TRUE else [model.initial],
        marker_preds=[] if model.marked == TRUE else [model.marked],
        invariants=list(model.invariants),
    )
    return out
