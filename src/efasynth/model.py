"""In-memory model of the supported automata language.

A :class:`Specification` holds events, automata (plants, requirements, and —
in tool output only — supervisors), input variables, component-level
initialization/marker predicates, and invariants.  Expressions are small
immutable trees; enumeration literals evaluate to their declaration index.

``fold_expr`` is the one way to walk an expression: name resolution, type
checking, location rewriting, variable collection, printing and BDD
compilation are all folds, and its explicit stack admits any length.
``eval_expr``, the reference semantics of the explicit-state oracle and of
the tests, stays a plain recursion of its own, so that the pipeline it
checks shares no traversal with it.  ``validate`` returns diagnostics
instead of raising, so callers can report every problem at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional, Union

__all__ = [
    "Automaton", "BinaryOp", "BoolDomain", "BoolLit", "Diagnostic",
    "Edge", "EnumDomain", "EnumLit", "Event", "Expr", "IntDomain", "IntLit",
    "Invariant", "LocRef", "Location", "ModelStats", "Span", "Specification",
    "UnaryOp", "VarRef", "Variable", "domain_size", "eval_expr", "fold_expr",
    "fresh_name", "literal_codes", "map_leaves", "model_stats", "validate",
]


class Span(NamedTuple):
    """1-based source position, attached to AST nodes for diagnostics.

    A named tuple, because the lexer makes one per token and a frozen
    dataclass sets each field through ``object.__setattr__``."""

    file: str = "<none>"
    line: int = 0
    column: int = 0
    length: int = 0


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def __str__(self):
        if self.span is not None and self.span.line:
            return f"{self.span.file}:{self.span.line}:{self.span.column}: {self.message}"
        return self.message


# ----------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class BoolDomain:
    pass


@dataclass(frozen=True)
class IntDomain:
    lo: int
    hi: int


@dataclass(frozen=True)
class EnumDomain:
    literals: tuple[str, ...]


Domain = Union[BoolDomain, IntDomain, EnumDomain]


def domain_size(domain: Domain) -> int:
    if isinstance(domain, BoolDomain):
        return 2
    if isinstance(domain, IntDomain):
        return domain.hi - domain.lo + 1
    return len(domain.literals)


# ----------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class VarRef:
    name: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EnumLit:
    """Reference to an enumeration literal; resolves to its index."""

    name: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LocRef:
    """``automaton.location``: true iff the automaton is in the location."""

    automaton: str
    location: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class UnaryOp:
    op: str  # 'not' | '-'
    operand: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinaryOp:
    op: str  # 'and' 'or' '+' '-' 'mod' '=' '!=' '<' '<=' '>' '>='
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


Expr = Union[IntLit, BoolLit, VarRef, EnumLit, LocRef, UnaryOp, BinaryOp]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


def fold_expr(expr: Expr, leaf, unary, binary):
    """Fold ``expr`` bottom up: ``leaf(node)``, ``unary(node, operand)`` and
    ``binary(node, left, right)`` give a node's value from its operands'.
    Operands are folded left to right before their operator, on an explicit
    stack, so an expression of any length folds."""
    if not isinstance(expr, (BinaryOp, UnaryOp)):
        return leaf(expr)
    values: list = []
    todo: list = [(expr, False)]
    while todo:
        node, ready = todo.pop()
        if ready:
            if isinstance(node, BinaryOp):
                right = values.pop()
                values[-1] = binary(node, values[-1], right)
            else:
                values[-1] = unary(node, values[-1])
        elif isinstance(node, BinaryOp):
            todo += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, UnaryOp):
            todo += ((node, True), (node.operand, False))
        else:
            values.append(leaf(node))
    return values[0]


def map_leaves(expr: Expr, replace) -> Expr:
    """``expr`` with every leaf ``node`` replaced by ``replace(node)``;
    operators keep their spans."""
    return fold_expr(
        expr, replace,
        lambda node, operand: UnaryOp(node.op, operand, span=node.span),
        lambda node, left, right: BinaryOp(node.op, left, right, span=node.span),
    )


# ----------------------------------------------------------------------
# structure


@dataclass
class Event:
    name: str
    controllable: bool
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass
class Variable:
    """Discrete, input, or (after linearization) location-pointer variable.

    ``initial`` lists the allowed initial values (ints, bools, or enum
    literal names); ``None`` or an empty tuple means any in-domain value.
    Input variables never carry initial values.
    """

    name: str
    domain: Domain
    kind: str = "disc"  # 'disc' | 'input' | 'pointer'
    initial: Optional[tuple] = None
    owner: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass
class Location:
    name: str
    # None = not initial/marked; True = unconditionally; Expr = conditional.
    initial: object = None
    marked: object = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass
class Edge:
    source: str
    events: list[str] = field(default_factory=list)
    guard: Optional[Expr] = None  # None means true
    updates: list[tuple[str, Expr]] = field(default_factory=list)
    target: Optional[str] = None  # None means self-loop
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def target_or_source(self) -> str:
        return self.target if self.target is not None else self.source


@dataclass
class Automaton:
    name: str
    kind: str  # 'plant' | 'requirement' | 'supervisor'
    variables: list[Variable] = field(default_factory=list)
    locations: list[Location] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    alphabet: Optional[list[str]] = None  # explicit alphabet, if declared
    plantified: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def alphabet_of(self, spec: "Specification") -> list[str]:
        """Explicit alphabet, or the events on edges in declaration order."""
        if self.alphabet is not None:
            return list(self.alphabet)
        used = {ev for edge in self.edges for ev in edge.events}
        return [ev.name for ev in spec.events if ev.name in used]


@dataclass
class Invariant:
    kind: str  # 'state' | 'needs' | 'disables'
    side: str  # 'plant' | 'requirement' | 'supervisor'
    predicate: Expr
    event: Optional[str] = None  # for needs/disables
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass
class Specification:
    events: list[Event] = field(default_factory=list)
    automata: list[Automaton] = field(default_factory=list)
    input_vars: list[Variable] = field(default_factory=list)
    init_preds: list[Expr] = field(default_factory=list)
    marker_preds: list[Expr] = field(default_factory=list)
    invariants: list[Invariant] = field(default_factory=list)

    def automaton(self, name: str) -> Optional[Automaton]:
        for aut in self.automata:
            if aut.name == name:
                return aut
        return None

    def variables(self) -> Iterator[Variable]:
        """All variables: per automaton in declaration order, then inputs."""
        for aut in self.automata:
            yield from aut.variables
        yield from self.input_vars


def fresh_name(base: str, taken: set[str]) -> str:
    """``base`` with ``_`` appended until it is not in ``taken``; the name
    is added to ``taken``."""
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


# ----------------------------------------------------------------------
# enumeration literal resolution


def literal_codes(spec: Specification) -> dict[str, int]:
    """Map each enumeration literal to its declaration index.

    A literal used at different indices in different domains has no single
    meaning; ``validate`` reports that, here the first occurrence wins.
    """
    codes: dict[str, int] = {}
    for var in spec.variables():
        if isinstance(var.domain, EnumDomain):
            for idx, lit in enumerate(var.domain.literals):
                codes.setdefault(lit, idx)
    return codes


# ----------------------------------------------------------------------
# evaluation


def eval_expr(
    expr: Expr,
    values: Mapping[str, object],
    locations: Mapping[str, str],
    codes: Mapping[str, int],
):
    """Evaluate ``expr`` in a state.

    ``values`` maps variable names to ints/bools (enums as indices),
    ``locations`` maps automaton names to current location names, and
    ``codes`` resolves enumeration literals (see :func:`literal_codes`).
    Evaluation is total on well-typed expressions; range violations are the
    caller's concern.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, VarRef):
        return values[expr.name]
    if isinstance(expr, EnumLit):
        return codes[expr.name]
    if isinstance(expr, LocRef):
        return locations[expr.automaton] == expr.location
    if isinstance(expr, UnaryOp):
        val = eval_expr(expr.operand, values, locations, codes)
        return (not val) if expr.op == "not" else -val
    op = expr.op
    lhs = eval_expr(expr.left, values, locations, codes)
    if op == "and":
        return bool(lhs) and bool(
            eval_expr(expr.right, values, locations, codes)
        )
    if op == "or":
        return bool(lhs) or bool(
            eval_expr(expr.right, values, locations, codes)
        )
    rhs = eval_expr(expr.right, values, locations, codes)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "mod":
        return lhs % rhs
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise ValueError(f"unknown operator {op!r}")


# ----------------------------------------------------------------------
# validation


# Typing folds an expression to a (type, diagnostics) pair.  A type is
# 'bool', 'int', an EnumDomain, None for "already reported", or, for an
# enumeration literal, the literal itself: a marker only '='/'!=' accept.
# An operator reports on its left operand ahead of the problems inside its
# right one; each list is consumed once, so operators extend it in place.
# Literals and variable domains name their type; an enumeration is its own.
_TYPE_NAMES = {
    BoolLit: "bool", BoolDomain: "bool", IntLit: "int", IntDomain: "int",
}


def _type_leaf(locations: dict, variables: dict, expr: Expr):
    if isinstance(expr, VarRef):
        var = variables.get(expr.name)
        if var is None:
            message = f"unknown variable '{expr.name}'"
            return None, [Diagnostic(message, expr.span)]
        return _TYPE_NAMES.get(type(var.domain), var.domain), []
    if not isinstance(expr, LocRef):
        return _TYPE_NAMES.get(type(expr), expr), []
    names = locations.get(expr.automaton)
    if names is None:
        message = f"unknown automaton '{expr.automaton}'"
    elif expr.location not in names:
        message = (
            f"automaton '{expr.automaton}' has no location '{expr.location}'"
        )
    else:
        return "bool", []
    return "bool", [Diagnostic(message, expr.span)]


def _settle(typed):
    """A bare enumeration literal has no type outside '='/'!='."""
    got, diags = typed
    if not isinstance(got, EnumLit):
        return typed
    message = f"enumeration literal '{got.name}' cannot be typed here"
    return None, [Diagnostic(message, got.span)]


def _operand(typed, want: str, message: str, node: Expr) -> list[Diagnostic]:
    """An operand's diagnostics, then ``message`` if it is not ``want``."""
    got, diags = _settle(typed)
    if got is not None and got != want:
        diags.append(Diagnostic(message, node.span))
    return diags


def _type_unary(expr: UnaryOp, operand):
    want = "bool" if expr.op == "not" else "int"
    message = f"operand of '{expr.op}' must be {want}"
    return want, _operand(operand, want, message, expr)


def _type_binary(expr: BinaryOp, left, right):
    op = expr.op
    if op in ("=", "!="):
        return _type_equality(expr, left, right)
    want, word = (
        ("bool", "boolean") if op in ("and", "or") else ("int", "integer")
    )
    message = f"operand of '{op}' must be {word}"
    diags = _operand(left, want, message, expr.left)
    diags += _operand(right, want, message, expr.right)
    if op == "mod":
        rhs = expr.right
        if not isinstance(rhs, IntLit) or rhs.value <= 0:
            message = "modulus must be a positive integer literal"
            diags.append(Diagnostic(message, expr.span))
    return ("int" if op in ("+", "-", "mod") else "bool"), diags


def _type_equality(expr: BinaryOp, left, right):
    if isinstance(left[0], EnumLit) and not isinstance(right[0], EnumLit):
        left, right = right, left
    (lty, diags), (rty, found) = _settle(left), right
    diags += found  # none for a literal
    if isinstance(rty, EnumLit):  # compared against an enumeration literal
        if isinstance(lty, EnumDomain) and rty.name not in lty.literals:
            diags.append(Diagnostic(
                f"literal '{rty.name}' is not a value of the compared "
                "enumeration", rty.span,
            ))
        elif lty is not None and not isinstance(lty, EnumDomain):
            diags.append(Diagnostic(
                "enumeration literal compared against a non-enumeration "
                "operand", rty.span,
            ))
    elif lty is not None and rty is not None and lty != rty:
        if isinstance(lty, EnumDomain) and isinstance(rty, EnumDomain):
            message = "comparison of distinct enumerations"
        else:
            message = f"'{expr.op}' compares {lty} with {rty}"
        diags.append(Diagnostic(message, expr.span))
    return "bool", diags


def _check_initial_values(var: Variable, diags: list[Diagnostic]) -> None:
    if not var.initial:
        return
    for value in var.initial:
        if isinstance(var.domain, BoolDomain):
            ok = isinstance(value, bool)
        elif isinstance(var.domain, IntDomain):
            ok = (
                isinstance(value, int)
                and not isinstance(value, bool)
                and var.domain.lo <= value <= var.domain.hi
            )
        else:
            ok = value in var.domain.literals
        if not ok:
            diags.append(
                Diagnostic(
                    f"initial value {value!r} outside the domain of "
                    f"'{var.name}'",
                    var.span,
                )
            )


def validate(
    spec: Specification, allow_supervisor: bool = False
) -> list[Diagnostic]:
    """Well-formedness and type diagnostics; empty list means valid.

    ``allow_supervisor`` admits supervisor automata and supervisor-side
    invariants; they occur only in tool output, so fresh input rejects them.
    """
    diags: list[Diagnostic] = []

    def err(message, node=None):
        diags.append(Diagnostic(message, getattr(node, "span", None)))

    seen_events: set[str] = set()
    for ev in spec.events:
        if ev.name in seen_events:
            err(f"duplicate event '{ev.name}'", ev)
        seen_events.add(ev.name)

    seen_names: set[str] = set()
    for aut in spec.automata:
        if aut.name in seen_names:
            err(f"duplicate automaton '{aut.name}'", aut)
        seen_names.add(aut.name)
    for var in spec.variables():
        if var.name in seen_names:
            err(f"duplicate name '{var.name}'", var)
        seen_names.add(var.name)

    # Domains, initial values, and enum literal coherence.
    codes: dict[str, int] = {}
    for var in spec.variables():
        dom = var.domain
        if isinstance(dom, IntDomain) and not 0 <= dom.lo <= dom.hi:
            err(f"integer range of '{var.name}' must satisfy 0 <= lo <= hi", var)
        if isinstance(dom, EnumDomain):
            if not dom.literals:
                err(f"enumeration of '{var.name}' has no literals", var)
            if len(set(dom.literals)) != len(dom.literals):
                err(f"duplicate literal in enumeration of '{var.name}'", var)
            for idx, lit in enumerate(dom.literals):
                if codes.setdefault(lit, idx) != idx:
                    err(
                        f"literal '{lit}' is used at different positions in "
                        "different enumerations",
                        var,
                    )
        if var.kind == "input" and var.initial:
            err(f"input variable '{var.name}' cannot have initial values", var)
        _check_initial_values(var, diags)

    # A variable name resolves to its first declaration but types by its
    # last; an automaton name resolves to its first declaration.
    first = {v.name: v for v in reversed(list(spec.variables()))}
    variables = {v.name: v for v in spec.variables()}
    locations = {
        aut.name: {loc.name for loc in aut.locations}
        for aut in reversed(spec.automata)
    }
    leaf = functools.partial(_type_leaf, locations, variables)

    def typed(expr):
        return fold_expr(expr, leaf, _type_unary, _type_binary)

    def check_bool(expr, what):
        message = f"{what} must be boolean"
        diags.extend(_operand(typed(expr), "bool", message, expr))

    for aut in spec.automata:
        if aut.kind == "supervisor" and not allow_supervisor:
            err(f"automaton '{aut.name}' is supervisor-kind", aut)
        if not aut.locations:
            err(f"automaton '{aut.name}' has no locations", aut)
        loc_names = set()
        for loc in aut.locations:
            if loc.name in loc_names:
                err(f"duplicate location '{aut.name}.{loc.name}'", loc)
            loc_names.add(loc.name)
            for pred, what in ((loc.initial, "initial"), (loc.marked, "marked")):
                if pred not in (None, True):
                    check_bool(pred, f"{what} predicate")
        owned = {v.name for v in aut.variables}
        alphabet = set(aut.alphabet) if aut.alphabet is not None else None
        if aut.alphabet is not None:
            for name in aut.alphabet:
                if name not in seen_events:
                    err(f"alphabet of '{aut.name}' names unknown event '{name}'", aut)
        for edge in aut.edges:
            if not edge.events:
                err(f"edge in '{aut.name}' has no events", edge)
            for name in edge.events:
                if name not in seen_events:
                    err(f"unknown event '{name}'", edge)
                elif alphabet is not None and name not in alphabet:
                    err(
                        f"event '{name}' is outside the explicit alphabet of "
                        f"'{aut.name}'",
                        edge,
                    )
            if edge.source not in loc_names:
                err(f"unknown source location '{edge.source}'", edge)
            if edge.target is not None and edge.target not in loc_names:
                err(f"unknown target location '{edge.target}'", edge)
            if edge.guard is not None:
                check_bool(edge.guard, "guard")
            assigned = set()
            for name, rhs in edge.updates:
                if name in assigned:
                    err(f"variable '{name}' assigned twice on one edge", edge)
                assigned.add(name)
                var = first.get(name)
                if var is None:
                    err(f"assignment to unknown variable '{name}'", edge)
                    continue
                if var.kind == "input":
                    err(f"assignment to input variable '{name}'", edge)
                elif name not in owned:
                    err(
                        f"edge in '{aut.name}' assigns '{name}' owned "
                        "elsewhere (variables are global read, local write)",
                        edge,
                    )
                domain = variables[name].domain
                want = _TYPE_NAMES.get(type(domain), domain)
                if isinstance(rhs, EnumLit):
                    if isinstance(want, EnumDomain) and rhs.name not in want.literals:
                        err(
                            f"literal '{rhs.name}' is not a value of "
                            f"'{name}'",
                            edge,
                        )
                    elif not isinstance(want, EnumDomain):
                        err(f"enumeration literal assigned to '{name}'", edge)
                else:
                    got, found = _settle(typed(rhs))
                    diags.extend(found)
                    if got is not None and got != want:
                        err(f"assignment to '{name}' has mismatched type", edge)

    for inv in spec.invariants:
        if inv.side == "supervisor" and not allow_supervisor:
            err("supervisor-side invariant in input model", inv)
        if inv.side not in ("plant", "requirement", "supervisor"):
            err(f"unknown invariant side '{inv.side}'", inv)
        if inv.kind == "state":
            if inv.event is not None:
                err("state invariant cannot name an event", inv)
        elif inv.kind in ("needs", "disables"):
            if inv.event not in seen_events:
                err(f"invariant names unknown event '{inv.event}'", inv)
        else:
            err(f"unknown invariant kind '{inv.kind}'", inv)
        check_bool(inv.predicate, "invariant predicate")

    for pred in spec.init_preds:
        check_bool(pred, "initialization predicate")
    for pred in spec.marker_preds:
        check_bool(pred, "marker predicate")

    return diags


# ----------------------------------------------------------------------
# statistics


@dataclass
class ModelStats:
    """Structural counters over a specification.

    An edge labeled with k events counts k times in the edge, guard, and
    assignment counters; initial/marked location counters include
    conditional ones; ``vv`` sums declared domain sizes.
    """

    sigma_c: int = 0
    sigma_u: int = 0
    Ap: int = 0
    Ar: int = 0
    lp: int = 0
    lr: int = 0
    ep: int = 0
    er: int = 0
    gp: int = 0
    gr: int = 0
    ap: int = 0
    ar: int = 0
    ip: int = 0
    ir: int = 0
    ic: int = 0
    mp: int = 0
    mr: int = 0
    mc: int = 0
    vn: int = 0
    vv: int = 0
    tps: int = 0
    trs: int = 0
    tpe: int = 0
    tre: int = 0


def model_stats(spec: Specification) -> ModelStats:
    stats = ModelStats()
    for ev in spec.events:
        if ev.controllable:
            stats.sigma_c += 1
        else:
            stats.sigma_u += 1
    for aut in spec.automata:
        plant = aut.kind != "requirement"
        if plant:
            stats.Ap += 1
        else:
            stats.Ar += 1
        for loc in aut.locations:
            if plant:
                stats.lp += 1
                stats.ip += loc.initial is not None
                stats.mp += loc.marked is not None
            else:
                stats.lr += 1
                stats.ir += loc.initial is not None
                stats.mr += loc.marked is not None
        for edge in aut.edges:
            k = len(edge.events)
            guarded = edge.guard is not None and edge.guard != TRUE
            if plant:
                stats.ep += k
                stats.gp += k if guarded else 0
                stats.ap += k * len(edge.updates)
            else:
                stats.er += k
                stats.gr += k if guarded else 0
                stats.ar += k * len(edge.updates)
    stats.ic = len(spec.init_preds)
    stats.mc = len(spec.marker_preds)
    for var in spec.variables():
        stats.vn += 1
        stats.vv += domain_size(var.domain)
    for inv in spec.invariants:
        if inv.kind == "state":
            if inv.side == "requirement":
                stats.trs += 1
            else:
                stats.tps += 1
        else:
            if inv.side == "requirement":
                stats.tre += 1
            else:
                stats.tpe += 1
    return stats
