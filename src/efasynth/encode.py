"""Symbolic encoding of a linearized model.

Each variable becomes a block of interleaved BDD level pairs (current bit
at the even level, next-state partner right below it), least significant
bit first, blocks following the chosen variable order.

Integer expressions compile to little-endian bit vectors (:class:`BitVec`)
that carry the interval ``[lo, hi]`` of the values they take.  A variable
reference spans its whole encoded range, codes past the declared domain
included, so every guard is the same function of every code however it is
built.  Each sum, difference, negation and remainder is exactly as wide as
its interval (unsigned when ``lo >= 0``, two's complement otherwise), so
arithmetic never wraps and never carries bits that are constant.  Where the
intervals decide an outcome (a comparison, an equality, ``mod m`` of a value
already in ``[0, m)``) the result is a constant built with no BDD call.  An
assignment's value leaving the encoded bit range is the edge's error
predicate; its two parts, below code 0 and above the top code, are each
``false`` for free when the interval rules them out, so a constant
right-hand side has no error at all.  Leaving the declared domain is
handled by guard strengthening against the domain predicate.

Conjunctions and disjunctions of many operands (an 'and'/'or' chain in an
expression, the domain predicate, a frame, a bit-vector equality) are
combined by :func:`combine`, deepest top level first.  Each operand then
sits at or above the running result, so an apply walks the operand and the
result's top only: a chain of single-level operands costs one operation
each, where a left-to-right fold walks, and recurses through, the whole
result at every step.

``build_symbolic`` runs the whole pipeline on a linearized model:

1. allocate levels and the domain predicate ``pp``
2. compile every edge to (guard, error, partial update)
3. conjoin plant state invariants onto ``pp``; violated requirement state
   invariants start the forbidden predicate
4. add one free-running edge per input variable, successors bounded by ``pp``
5. collect the remaining forbidden states: guard-and-error states of
   uncontrollable edges; fold ``not error`` into every guard and drop the
   error, which no root holds (``compile_edges`` gives it again)
6. strengthen guards so all successors satisfy ``pp`` (by implication
   check or by restrict-based simplification)
7. fold event-condition invariants into guards; requirement conditions on
   uncontrollable events contribute forbidden states instead of relying on
   the guard alone.  The guards are the conditions' only home: each edge's
   guard is its plant guard (``guard_plant``) and every requirement
   condition of its event, so the disjunction of an event's guards is the
   disjunction of its plant guards conjoined with those conditions
8. compile initial (conjoined with ``pp``) and marked predicates
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bdd import BddManager, NodeRef
from .model import (
    BinaryOp, BoolDomain, BoolLit, EnumLit, Expr, IntDomain, IntLit, UnaryOp,
    VarRef, Variable, domain_size, fold_expr, fresh_name,
)
from .transform import LinearModel

__all__ = [
    "Encoding", "PLANT_INVS", "SymEdge", "SymbolicModel", "build_symbolic",
    "compile_edges", "edges_by_event",
]

# The values of build_symbolic's switch: how stage 6 strengthens guards.
PLANT_INVS = ("implication", "restrict")


# ----------------------------------------------------------------------
# n-ary connectives


def combine(mgr: BddManager, op: str, operands: list[NodeRef]) -> NodeRef:
    """``operands`` joined by ``op`` ('and' or 'or'), deepest top level
    first (see the module docstring).

    The sort is stable, so operands with equal top levels keep their order
    and the counters stay deterministic.  The running result is a
    registered root between applies, so building on it does not mark it
    again as a temporary of each apply.
    """
    if not operands:
        return mgr.true if op == "and" else mgr.false
    if len(operands) == 1:
        return operands[0]
    ordered = sorted(operands, key=mgr.top_level, reverse=True)
    acc = mgr.register_root(ordered[0])
    try:
        for operand in ordered[1:]:
            acc = mgr.rebind(acc, mgr.apply(op, acc, operand))
        return acc
    finally:
        mgr.release_root(acc)


# ----------------------------------------------------------------------
# bit vectors sized to their value intervals


def _width(lo: int, hi: int) -> int:
    """Bits that hold every value of ``[lo, hi]``: unsigned when ``lo >= 0``,
    two's complement otherwise; at least one."""
    if lo >= 0:
        return max(1, hi.bit_length())
    return 1 + max((~lo).bit_length(), max(hi, 0).bit_length())


class BitVec(NamedTuple):
    """An integer value: little-endian bits of :func:`_width` ``(lo, hi)``,
    unsigned when ``lo >= 0`` and two's complement otherwise, for a value
    that lies in ``[lo, hi]`` at every code."""

    bits: list[NodeRef]
    lo: int
    hi: int

    def at(self, width: int) -> list[NodeRef]:
        """The bits of the value modulo ``2**width``: extended by the bit
        above the top (false, or the sign) or cut."""
        fill = self.bits[-1] if self.lo < 0 else self.bits[0].manager.false
        return self.bits[:width] + [fill] * (width - len(self.bits))


def _narrow(v: BitVec, lo: int, hi: int) -> BitVec:
    """``v`` in the width of ``[lo, hi]``, exact wherever its value lies in
    that interval."""
    return BitVec(v.at(_width(lo, hi)), lo, hi)


def bv_const(mgr: BddManager, value: int) -> BitVec:
    width = _width(value, value)
    mask = value & ((1 << width) - 1)
    bits = [mgr.true if mask >> i & 1 else mgr.false for i in range(width)]
    return BitVec(bits, value, value)


def bv_add(
    mgr: BddManager, a: BitVec, b: BitVec, *, negate_b: bool = False,
) -> BitVec:
    """``a + b`` (``a - b`` with ``negate_b``) in the width of its interval;
    a decided sum is a constant, built with no BDD call."""
    if negate_b:
        lo, hi = a.lo - b.hi, a.hi - b.lo
    else:
        lo, hi = a.lo + b.lo, a.hi + b.hi
    if lo == hi:
        return bv_const(mgr, lo)
    width = _width(lo, hi)
    carry = mgr.true if negate_b else mgr.false
    out = []
    for i, (x, y) in enumerate(zip(a.at(width), b.at(width))):
        if negate_b:
            y = mgr.negate(y)
        out.append(x ^ y ^ carry)
        if i < width - 1:  # the carry out of the top bit is not needed
            carry = (x & y) | (carry & (x | y))
    return BitVec(out, lo, hi)


def bv_sub(mgr, a, b):
    return bv_add(mgr, a, b, negate_b=True)


def bv_eq(mgr, a: BitVec, b: BitVec) -> NodeRef:
    if a.hi < b.lo or b.hi < a.lo:
        return mgr.false
    if a.lo == a.hi == b.lo == b.hi:
        return mgr.true
    # distinct values of the joint interval differ in this many bits
    width = _width(min(a.lo, b.lo), max(a.hi, b.hi))
    return combine(mgr, "and", [
        mgr.apply("biimp", x, y) for x, y in zip(a.at(width), b.at(width))
    ])


def bv_lt(mgr, a: BitVec, b: BitVec) -> NodeRef:
    """``a < b``: the sign of ``a - b`` from its borrow chain alone, or a
    constant where the intervals decide."""
    if a.hi < b.lo:
        return mgr.true
    if a.lo >= b.hi:
        return mgr.false
    # the difference's interval holds 0 and -1, so its top bit is the sign
    width = _width(a.lo - b.hi, a.hi - b.lo)
    xs, ys = a.at(width), [mgr.negate(y) for y in b.at(width)]
    carry = mgr.true
    for x, y in zip(xs[:-1], ys[:-1]):
        carry = (x & y) | (carry & (x | y))
    return xs[-1] ^ ys[-1] ^ carry


def bv_ite(mgr, cond: NodeRef, a: BitVec, b: BitVec) -> BitVec:
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    width = _width(lo, hi)
    return BitVec([
        mgr.ite(cond, x, y) for x, y in zip(a.at(width), b.at(width))
    ], lo, hi)


def bv_mod(mgr, a: BitVec, modulus: int) -> BitVec:
    """Remainder by a positive constant, nonnegative result.

    A negative interval is first shifted by a multiple of the modulus.
    Then the bits are folded most significant first into a running
    remainder ``r``: ``2r + bit`` loses the modulus where it reaches it,
    and the intervals skip every step they decide.
    """
    if 0 <= a.lo and a.hi < modulus:
        return a
    if a.lo == a.hi:
        return bv_const(mgr, a.lo % modulus)
    if a.lo < 0:
        a = bv_add(mgr, a, bv_const(mgr, -(a.lo // modulus) * modulus))
    top = bv_const(mgr, modulus)
    remainder = BitVec([], 0, 0)  # of no bits yet: 2r + bit is one bit wide
    for bit in reversed(a.bits):
        doubled = BitVec(
            [bit] + remainder.bits,
            2 * remainder.lo + (1 if bit.is_true else 0),
            2 * remainder.hi + (0 if bit.is_false else 1),
        )
        over = mgr.negate(bv_lt(mgr, doubled, top))
        if over.is_false:
            remainder = doubled
            continue
        # where it is taken, 2r + bit - modulus lies in [0, modulus)
        less = _narrow(bv_sub(mgr, doubled, top), 0, doubled.hi - modulus)
        remainder = less if over.is_true else bv_ite(
            mgr, over, less, _narrow(doubled, doubled.lo, modulus - 1)
        )
    return remainder


# The arithmetic and ordering operators on compiled bit vectors.
_BINARY = {
    "+": bv_add,
    "-": bv_sub,
    "<": bv_lt,
    ">": lambda mgr, a, b: bv_lt(mgr, b, a),
    "<=": lambda mgr, a, b: mgr.negate(bv_lt(mgr, b, a)),
    ">=": lambda mgr, a, b: mgr.negate(bv_lt(mgr, a, b)),
}


# ----------------------------------------------------------------------
# encoding


@dataclass
class SymVar:
    var: Variable
    width: int
    lo: int  # value of code 0 (integer domains only)
    levels: list[int]  # even levels, least significant bit first

    @property
    def codes(self) -> int:
        return domain_size(self.var.domain)


@dataclass
class _Chain:
    """The operands of an 'and'/'or' chain that is not yet combined."""

    op: str
    operands: list[NodeRef]


class Encoding:
    """Variables laid out on a manager plus expression compilation."""

    def __init__(self, model: LinearModel, order: list[int]):
        self.model = model
        self.manager = BddManager()
        self.symvars: list[SymVar] = []
        self.by_name: dict[str, SymVar] = {}
        self.by_level: dict[int, SymVar] = {}  # even levels only
        for index in order:
            var = model.variables[index]
            size = domain_size(var.domain)
            width = max(1, (size - 1).bit_length())
            lo = var.domain.lo if isinstance(var.domain, IntDomain) else 0
            levels = [self.manager.add_pair()[0] for _ in range(width)]
            sym = SymVar(var, width, lo, levels)
            self.symvars.append(sym)
            self.by_name[var.name] = sym
            self.by_level.update(dict.fromkeys(levels, sym))
        self.state_levels = [
            lvl for sym in self.symvars for lvl in sym.levels
        ]
        self.next_levels = [lvl + 1 for lvl in self.state_levels]

    # -- variable access

    def bits(self, name: str, primed: bool = False) -> list[NodeRef]:
        sym = self.by_name[name]
        shift = 1 if primed else 0
        return [self.manager.var(lvl + shift) for lvl in sym.levels]

    def code_bits(self, name: str, primed: bool = False) -> BitVec:
        """The variable's code over its whole encoded range: a guard is a
        function of every code, not only of those in the declared domain."""
        sym = self.by_name[name]
        return BitVec(self.bits(name, primed), 0, (1 << sym.width) - 1)

    def value_bits(self, name: str) -> BitVec:
        """The variable in value space (code plus offset)."""
        lo = self.by_name[name].lo
        code = self.code_bits(name)
        if lo:
            return bv_add(self.manager, code, bv_const(self.manager, lo))
        return code

    def in_domain(self, name: str) -> NodeRef:
        """Code within the declared domain (the encoded range may be wider)."""
        codes = bv_const(self.manager, self.by_name[name].codes)
        return bv_lt(self.manager, self.code_bits(name), codes)

    def domain_predicate(self) -> NodeRef:
        return combine(self.manager, "and", [
            self.in_domain(sym.var.name) for sym in self.symvars
        ])

    def frame(self, name: str) -> NodeRef:
        """Next value equals current value."""
        mgr = self.manager
        return combine(mgr, "and", [
            mgr.apply("biimp", mgr.var(lvl), mgr.var(lvl + 1))
            for lvl in self.by_name[name].levels
        ])

    # -- expression compilation

    def compile_pred(self, expr: Expr):
        """One fold: a boolean (sub)expression compiles to a :class:`NodeRef`,
        an integer or enumeration one to a bit vector, so '='/'!=' can tell
        the two apart by their left operand's value.  An 'and'/'or' yields a
        :class:`_Chain` that takes in its same-operator operands; it is
        combined once something else reads it."""
        return self._force(
            fold_expr(expr, self._leaf, self._unary, self._binary)
        )

    def _force(self, value):
        if isinstance(value, _Chain):
            return combine(self.manager, value.op, value.operands)
        return value

    def _leaf(self, expr: Expr):
        mgr = self.manager
        if isinstance(expr, BoolLit):
            return mgr.true if expr.value else mgr.false
        if isinstance(expr, IntLit):
            return bv_const(mgr, expr.value)
        if isinstance(expr, EnumLit):
            return bv_const(mgr, self.model.codes[expr.name])
        if isinstance(expr, VarRef):
            if isinstance(self.by_name[expr.name].var.domain, BoolDomain):
                return self.bits(expr.name)[0]
            return self.value_bits(expr.name)
        raise ValueError("location references must be linearized away")

    def _unary(self, expr: UnaryOp, operand):
        mgr = self.manager
        if expr.op == "not":
            return mgr.negate(self._force(operand))
        return bv_sub(mgr, bv_const(mgr, 0), operand)

    def _binary(self, expr: BinaryOp, a, b):
        mgr = self.manager
        if expr.op in ("and", "or"):
            # the left operand's chain is taken over, so a chain of any
            # length is gathered in linear time
            if isinstance(a, _Chain) and a.op == expr.op:
                chain = a
            else:
                chain = _Chain(expr.op, [self._force(a)])
            if isinstance(b, _Chain) and b.op == expr.op:
                chain.operands += b.operands
            else:
                chain.operands.append(self._force(b))
            return chain
        a, b = self._force(a), self._force(b)
        if expr.op == "mod":
            return bv_mod(mgr, a, expr.right.value)
        if expr.op in ("=", "!="):
            if isinstance(a, NodeRef):
                same = mgr.apply("biimp", a, b)
            else:
                same = bv_eq(mgr, a, b)
            return same if expr.op == "=" else mgr.negate(same)
        return _BINARY[expr.op](mgr, a, b)

    def assignment(self, name: str, rhs: Expr) -> tuple[NodeRef, NodeRef]:
        """Update relation and range-error predicate for ``name := rhs``."""
        mgr = self.manager
        sym = self.by_name[name]
        if isinstance(sym.var.domain, BoolDomain):
            target = self.bits(name, primed=True)[0]
            return mgr.apply("biimp", target, self.compile_pred(rhs)), mgr.false
        code = self.compile_pred(rhs)
        if sym.lo:
            code = bv_sub(mgr, code, bv_const(mgr, sym.lo))
        # The code leaves [0, 2**width) where a bit from ``width`` up, the
        # sign included, is set: none is where the interval rules that out,
        # so a constant right-hand side costs no BDD call.
        high = code.at(max(len(code.bits), sym.width + 1))[sym.width:]
        error = combine(mgr, "or", high)
        update = bv_eq(mgr, self.code_bits(name, primed=True), code)
        return update, error


# ----------------------------------------------------------------------
# symbolic edges and the staged build


@dataclass
class SymEdge:
    event: str
    controllable: bool
    guard: NodeRef
    # encoded-range overflow of the raw updates; None once build_symbolic
    # has folded it into the guard
    error: NodeRef | None
    update: NodeRef  # partial relation over the assigned variables' pairs
    assigned: frozenset[str]
    # guard without requirement conditions, read by the plant count; set by
    # build_symbolic
    guard_plant: NodeRef = None
    is_input: bool = False


@dataclass
class SymbolicModel:
    enc: Encoding
    events: list[tuple[str, bool]]  # (name, controllable), inputs last
    edges: list[SymEdge]  # one per linearized edge, then the input edges
    initial: NodeRef
    marked: NodeRef
    forbidden: NodeRef
    pp: NodeRef  # domain and plant state invariants

    @property
    def manager(self) -> BddManager:
        return self.enc.manager


def compile_edges(enc: Encoding) -> list[SymEdge]:
    """Stage-2 output: one symbolic (guard, error, update) per model edge."""
    mgr = enc.manager
    controllable = {ev.name: ev.controllable for ev in enc.model.events}
    edges = []
    for edge in enc.model.edges:
        guard = enc.compile_pred(edge.guard)
        pairs = [enc.assignment(name, rhs) for name, rhs in edge.updates]
        update = combine(mgr, "and", [u for u, _ in pairs])
        error = combine(mgr, "or", [e for _, e in pairs])
        edges.append(
            SymEdge(
                edge.event, controllable[edge.event], guard, error, update,
                frozenset(name for name, _ in edge.updates),
            )
        )
    return edges


def _input_edges(enc: Encoding, taken: set[str], pp: NodeRef) -> list[SymEdge]:
    mgr = enc.manager
    edges = []
    for var in enc.model.variables:
        if var.kind != "input":
            continue
        name = fresh_name(f"input_{var.name}", taken)
        sym = enc.by_name[var.name]
        change = mgr.negate(enc.frame(var.name))
        # The environment may move the variable to any other value that
        # keeps the plant invariant.  The update itself carries that bound:
        # the transition is nondeterministic, so there is no single image
        # that guard strengthening could act on.
        holds_after = mgr.replace(pp, {lvl: lvl + 1 for lvl in sym.levels})
        update = change & holds_after
        edges.append(
            SymEdge(name, False, mgr.true, mgr.false, update,
                    frozenset([var.name]), is_input=True)
        )
    return edges


def _enforce_targets(sym_edges, enc, pp, mode: str):
    """Stage 6: keep only transitions whose successors satisfy ``pp``."""
    mgr = enc.manager
    for edge in sym_edges:
        # the preimage under guard & update lies in the guard already
        ok = mgr.relprev(pp, edge.guard & edge.update)
        if mode == "implication":
            edge.guard = ok
        else:  # 'restrict': same states modulo pp, smaller predicates
            # an empty pp is no care set: every guard agrees on it
            edge.guard = ok if pp.is_false else mgr.restrict(ok, pp)


def build_symbolic(
    model: LinearModel,
    order: list[int],
    plant_inv: str = "implication",
) -> SymbolicModel:
    """Run the staged symbolic build; see the module docstring."""
    if plant_inv not in PLANT_INVS:
        raise ValueError(f"unknown plant_inv '{plant_inv}'")
    enc = Encoding(model, order)
    mgr = enc.manager

    edges = compile_edges(enc)

    pp = enc.domain_predicate()
    forbidden = mgr.false
    for inv in model.invariants:
        if inv.kind != "state":
            continue
        pred = enc.compile_pred(inv.predicate)
        if inv.side == "plant":
            pp = pp & pred
        else:
            forbidden = forbidden | mgr.negate(pred)

    taken = {ev.name for ev in model.events}
    edges += _input_edges(enc, taken, pp)
    events = [(ev.name, ev.controllable) for ev in model.events]
    events += [(e.event, False) for e in edges if e.is_input]

    # Range errors: uncontrollable ones poison their source states, and no
    # erroring transition survives in any edge.  The error is then dropped:
    # it is no root, so a collection may free its node.
    for edge in edges:
        if not edge.controllable and not edge.error.is_false:
            forbidden = forbidden | (edge.guard & edge.error)
        if not edge.error.is_false:
            edge.guard = edge.guard & mgr.negate(edge.error)
        edge.error = None

    _enforce_targets(edges, enc, pp, plant_inv)

    # Event-condition invariants.  Plant-side conditions are part of the
    # plant's own behavior; requirement-side conditions restrict it, which
    # for an uncontrollable event nobody can do, so the states where the
    # plant would take such a transition anyway become forbidden.
    conditions: dict[tuple[str, str], NodeRef] = {}
    for inv in model.invariants:
        if inv.kind == "state":
            continue
        pred = enc.compile_pred(inv.predicate)
        if inv.kind == "disables":
            pred = mgr.negate(pred)
        key = (inv.side, inv.event)
        conditions[key] = conditions[key] & pred if key in conditions else pred
    by_event = edges_by_event(edges)
    for (side, event), pred in conditions.items():
        if side == "plant":
            for edge in by_event.get(event, ()):
                edge.guard = edge.guard & pred
    for edge in edges:
        edge.guard_plant = edge.guard
    for (side, event), pred in conditions.items():
        if side == "plant":
            continue
        for edge in by_event.get(event, ()):
            if not edge.controllable:
                forbidden = forbidden | (edge.guard & mgr.negate(pred))
            edge.guard = edge.guard & pred

    initial = enc.compile_pred(model.initial) & pp
    marked = enc.compile_pred(model.marked)

    sym = SymbolicModel(enc, events, edges, initial, marked, forbidden, pp)
    for edge in edges:
        mgr.register_root(edge.guard)
        mgr.register_root(edge.update)
        mgr.register_root(edge.guard_plant)
    for root in (initial, marked, forbidden, pp):
        mgr.register_root(root)
    return sym


def edges_by_event(edges: list) -> dict[str, list]:
    """The edges of each event, in the order of ``edges``; any items with
    an ``event`` field group alike (the synthesis relations do)."""
    by_event: dict[str, list] = {}
    for edge in edges:
        by_event.setdefault(edge.event, []).append(edge)
    return by_event
