"""Fixed-point supervisor synthesis over the symbolic model.

The controlled-behavior predicate starts from the complement of the
forbidden states and shrinks under two (optionally three) stages until
stable:

* nonblocking — backward reachability of the marked states within the
  current behavior,
* controllability — complement of the backward closure of the bad states
  under uncontrollable events,
* optionally forward — reachable part of the behavior from the initial
  states.

Both the stage loop and the per-call reachability loops run on one
driver, :func:`_iterate`, which applies its steps round-robin until a run
of applications changes nothing.  It has two stopping rules: without
early stopping it stops only at the end of a complete sweep that changed
nothing; with early stopping it stops as soon as the unchanged run covers
every edge (reachability) or every stage but the one that changed last
(the stage loop: every stage is idempotent).  The stage loop also stops
as soon as no initial state survives.

Edge application is either *naive* — a total relation per edge, framing
every unassigned variable, with explicit rename/conjoin/quantify steps and
a separate union — or *compound*: image/preimage and union in one product
over partial relations (``relnext``/``relprev`` with ``into``).  A naive
step re-derives nothing the relation already holds: ``build_symbolic``
folded ``not error`` into every guard, and the relation is rooted
conjoined with the restriction, so the source states of a preimage lie in
it already; only an image is conjoined with the restriction.  All four
combinations of application and stopping rule compute the same sets; they
differ in the operation and node counts reported by the manager, which is
the point of keeping them.

Every transition relation comes from one builder, :func:`relations`: a
disjunctive partition after Burch, Clarke & Long (VLSI 1991), with one
:class:`Relation` per edge, or one per event that unites the framed
branches of its edges.  The engine builds its relations once, per edge or,
under ``granularity`` 'event', per event, and holds them until it is
closed; like the two toggles above, granularity moves counters, not
results.  The stages reach over the engine's relations and guard
strengthening reads them too.  Emission and the plant count read the
model's edges (``sym.edges``) instead, for each edge's plant guard, which
a relation does not keep.

Once the behavior is stable, each controllable event gets one guard: the
union over the event's relations of the preimage of the behavior.  Under
'event' that is one preimage of the merged relation, which equals the
union of its branches' preimages; each of those lies inside its edge's
guard, so the union allows exactly the steps of the event that stay
inside the behavior, and the emitted model blocks the rest.  Only the
running union is a registered root, so the guards hold live nodes per
event, not per relation.

State counting runs after the headline metrics are frozen: the
uncontrolled count walks the plant guards (requirement conditions
stripped), the controlled count walks the edges' own guards inside the
final behavior, which allows the same steps as the strengthened guards
there; after a nonempty run with the forward stage the behavior is that
reach already and is counted as it is.
Reachable states are a unique least fixed point, so counting uses one
method under every configuration, whatever ``granularity``,
``edge_apply`` and ``early_stop`` say: one relation per event from
:func:`relations` and saturation (:meth:`BddManager.saturate`), which
fires each event relation on the sub-diagrams that start at its top
level.  It calls no
:class:`FixedPointEngine`, so ``reach_calls`` and ``edge_applications``
count synthesis alone, and it runs on an empty computed cache, so its
operations do not depend on what synthesis cached.  On a model with input
variables, a count runs over the other variables when the plant
invariants bound each input on its own: every behavior counted leaves the
inputs free within them, the input edges then reach every allowed input
value, and the reachable set is a cylinder over the inputs (see
:func:`_count_states`).  Counting operations are left out of
``operations`` and reported apart as ``count_operations``;
``unstaged_operations`` is the part of
``operations`` done between stage calls (the complement of the forbidden
states, the empty-supervisor checks and the surviving initial states),
so the stages and it add up to ``operations``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field

from .bdd import BddManager, NodeRef
from .encode import (
    PLANT_INVS, SymbolicModel, build_symbolic, combine, edges_by_event,
)
from .transform import LinearModel
from . import varorder

__all__ = [
    "CHOICES", "PRESETS", "SynthesisConfig", "SynthesisResult",
    "FixedPointEngine", "Relation", "relations", "synthesize",
]


# The allowed values of every toggle but ``order``, whose strategies
# varorder.check_strategy knows.
CHOICES = {
    "granularity": ("edge", "event"),  # relations per edge, or per event
    "edge_apply": ("naive", "compound"),
    "early_stop": (False, True),
    "forward": (False, True),
    "plant_inv": PLANT_INVS,
}

# The benchmark bundles, as overrides of the v40 defaults.
PRESETS = {
    "v08": {
        "order": "pipeline-v08", "granularity": "edge", "edge_apply": "naive",
        "early_stop": False, "plant_inv": "restrict",
    },
    "v40": {},
}


@dataclass
class SynthesisConfig:
    """Knobs for one synthesis run, defaulting to the ``v40`` bundle.

    The fields are the one table of toggles: ``CHOICES`` gives their
    values and ``PRESETS`` the bundles, and the CLI derives its flags and
    its configuration fingerprint from them.
    """

    order: str = field(default="pipeline-v40", metadata={
        "help": "ordering strategy (e.g. pipeline-v08, pipeline-v40, dcsh,"
                " force, sloan, cm, model, custom:a,b,c)",
    })
    granularity: str = "event"
    edge_apply: str = "compound"
    early_stop: bool = field(default=True, metadata={
        "help": "stop fixed points at idempotence",
    })
    forward: bool = field(default=False, metadata={
        "help": "add the forward reachability stage",
    })
    plant_inv: str = "implication"

    def __setattr__(self, name, value):
        # Checked on every assignment, so fields set after construction
        # (as the CLI does) are held to the same values as the constructor's.
        if name == "order":
            varorder.check_strategy(value)
        elif name in CHOICES and value not in CHOICES[name]:
            raise ValueError(
                f"unknown {name} '{value}'; expected one of "
                + ", ".join(map(str, CHOICES[name]))
            )
        super().__setattr__(name, value)

    @staticmethod
    def preset(name: str) -> "SynthesisConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown configuration preset '{name}'")
        return SynthesisConfig(**PRESETS[name])


@dataclass
class SynthesisResult:
    model: LinearModel
    config: SynthesisConfig
    sym: SymbolicModel
    controlled: NodeRef  # the final behavior predicate
    initial: NodeRef  # initial states surviving synthesis
    nonempty: bool
    # per controllable event, the union of its edges' strengthened guards
    event_guards: dict[str, NodeRef] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def manager(self) -> BddManager:
        return self.sym.manager


def _iterate(mgr: BddManager, steps, acc: NodeRef, early_stop: bool,
             quiet: int | None = None, dead=None,
             on_change=None) -> tuple[NodeRef, int]:
    """Apply ``steps`` round-robin to ``acc`` until it is stable.

    Stops once the last ``quiet`` applications (default: one per step)
    changed nothing and at least one full sweep ran; without
    ``early_stop`` it stops only at the end of a sweep.  Stops at once when
    ``dead(acc)`` holds after a change.  ``acc`` must be a registered root;
    the registration moves to each new value and the final one is released.
    ``on_change()`` runs after each change, once the new value is
    registered and the old one released.  Returns the result and the
    number of applications.
    """
    n = len(steps)
    quiet = n if quiet is None else quiet
    runs = fails = 0
    try:
        while n:
            new = steps[runs % n](acc)
            runs += 1
            if new == acc:
                fails += 1
                if (fails >= quiet and runs >= n
                        and (early_stop or runs % n == 0)):
                    break
            else:
                fails = 0
                acc = mgr.rebind(acc, new)
                if on_change is not None:
                    on_change()
                if dead is not None and dead(acc):
                    break
        return acc, runs
    finally:
        mgr.release_root(acc)


@dataclass(frozen=True)
class Relation:
    """One part of a disjunctive transition relation: one edge, or every
    edge of one event (see :func:`relations`)."""

    event: str
    controllable: bool
    rel: NodeRef  # the union of the branches' guard & update
    assigned: frozenset[str]
    # the odd levels of ``assigned``, passed to every product explicitly:
    # a union of branches can lose an assigned bit from its support
    levels: tuple[int, ...]


def relations(enc, events, edges, per_event: bool) -> list[Relation]:
    """One relation per edge of ``edges``, or with ``per_event`` one per
    event of ``events`` that has edges, in the order of ``events``.

    The relation of a group of edges is the union of each branch's
    ``guard & update``, framing in each branch the variables that the
    other branches assign, so partial-relation semantics still hold.  Each
    branch implies its guard, so the relation needs no separate guard.
    """
    mgr = enc.manager
    if per_event:
        by_event = edges_by_event(edges)
        groups = [by_event[name] for name, _ in events if name in by_event]
    else:
        groups = [[edge] for edge in edges]
    out = []
    for group in groups:
        assigned = frozenset().union(*(e.assigned for e in group))
        rel = mgr.false
        for edge in group:
            branch = edge.guard & edge.update
            for var in sorted(assigned - edge.assigned):
                branch = branch & enc.frame(var)
            rel = rel | branch
        levels = tuple(
            lvl + 1 for name in sorted(assigned)
            for lvl in enc.by_name[name].levels
        )
        out.append(Relation(
            group[0].event, group[0].controllable, rel, assigned, levels,
        ))
    return out


class FixedPointEngine:
    """Reachability with selectable application and stopping strategy.

    The engine builds its relations once, per edge or per event as
    ``granularity`` says, and holds them, with the framed relations of
    naive application, until it is closed.
    """

    def __init__(self, sym: SymbolicModel, config: SynthesisConfig):
        self.sym = sym
        self.config = config
        self.mgr = sym.manager
        self.enc = sym.enc
        self.edge_applications = 0
        self.reach_calls = 0
        enc = self.enc
        self._up = {lvl: lvl + 1 for lvl in enc.state_levels}
        self._down = {lvl + 1: lvl for lvl in enc.state_levels}
        self.relations = relations(
            enc, sym.events, sym.edges, config.granularity == "event"
        )
        self._rooted = [self.mgr.register_root(r.rel) for r in self.relations]
        # keyed by value, so equal relations share their framed relation
        self._framed: dict[Relation, NodeRef] = {}

    def close(self) -> None:
        for ref in self._rooted:
            self.mgr.release_root(ref)
        self._rooted.clear()
        self._framed.clear()

    def framed(self, r: Relation) -> NodeRef:
        """The naive relation: every unassigned variable framed explicitly."""
        t = self._framed.get(r)
        if t is None:
            t = r.rel
            for sym in self.enc.symvars:
                if sym.var.name not in r.assigned:
                    t = t & self.enc.frame(sym.var.name)
            self._rooted.append(self.mgr.register_root(t))
            self._framed[r] = t
        return t

    # -- one application of one relation to the accumulated set

    def _apply_naive(self, gur, restriction, backward, acc):
        # gur is the framed relation & restriction, and every guard
        # excludes its edge's range errors already
        mgr = self.mgr
        if backward:
            shifted = mgr.replace(acc, self._up)
            pre = mgr.exists(gur & shifted, self.enc.next_levels)
            return acc | pre
        mid = mgr.exists(gur & acc, self.enc.state_levels)
        img = mgr.replace(mid, self._down)
        return acc | (img & restriction)

    def _apply_compound(self, r, restriction, backward, acc):
        product = self.mgr.relprev if backward else self.mgr.relnext
        return product(acc, r.rel, constrain=restriction, assigned=r.levels,
                       into=acc)

    def reach(self, start, rels, restriction, backward: bool) -> NodeRef:
        """Least fixed point of ``start | step(...) & restriction`` under
        the relations ``rels``.

        Under compound application each step that changes the set is
        followed by a safe point (:meth:`BddManager.safe_point`), where the
        manager may free the nodes no root holds: the restriction and the
        relations are registered for the call, and the caller must hold
        every other value it uses after the call as a registered root.
        Naive application has none: it finds its step intermediates again
        across sweeps only through the computed cache, which a collection
        would purge."""
        self.reach_calls += 1
        mgr = self.mgr
        acc = mgr.register_root(start & restriction)
        call_roots = [mgr.register_root(restriction)]
        if self.config.edge_apply == "naive":
            apply, on_change = self._apply_naive, None
            rels = [
                mgr.register_root(self.framed(r) & restriction) for r in rels
            ]
            call_roots += rels
        else:
            apply, on_change = self._apply_compound, mgr.safe_point
            call_roots += [mgr.register_root(r.rel) for r in rels]
        steps = [
            functools.partial(apply, rel, restriction, backward)
            for rel in rels
        ]
        try:
            acc, runs = _iterate(
                mgr, steps, acc, self.config.early_stop, on_change=on_change
            )
        finally:
            for ref in call_roots:
                mgr.release_root(ref)
        self.edge_applications += runs
        return acc


def _event_guards(
    engine: FixedPointEngine, behavior: NodeRef
) -> dict[str, NodeRef]:
    """Per controllable event, the union over the engine's relations of
    the event of the preimage of ``behavior``: the steps that stay inside
    the behavior.  Each preimage joins the running union inside its
    product (``into``); the union is a registered root between products,
    and each guard comes back registered."""
    mgr = engine.mgr
    by_event = edges_by_event(engine.relations)
    guards = {}
    for name, controllable in engine.sym.events:
        if not controllable:
            continue
        guard = mgr.false
        for r in by_event.get(name, ()):
            guard = mgr.rebind(guard, mgr.relprev(
                behavior, r.rel, assigned=r.levels, into=guard,
            ))
        guards[name] = guard
    return guards


def _synthesize_behavior(engine: FixedPointEngine):
    """The main loop; returns the behavior predicate, sweep count, and a
    per-stage operation breakdown."""
    sym = engine.sym
    mgr = engine.mgr
    config = engine.config
    rels = engine.relations
    unc = [r for r in rels if not r.controllable]

    def nonblocking(c):
        return engine.reach(sym.marked, rels, c, backward=True)

    def controllability(c):
        bad = engine.reach(mgr.negate(c), unc, mgr.true, backward=True)
        return mgr.negate(bad)

    def forward(c):
        return engine.reach(sym.initial, rels, c, backward=False)

    stages = {"nonblocking": nonblocking, "controllability": controllability}
    if config.forward:
        stages["forward"] = forward
    stage_ops = dict.fromkeys(stages, 0)

    def run_stage(name, c):
        before = mgr.op_total
        nxt = stages[name](c)
        stage_ops[name] += mgr.op_total - before
        return nxt

    nst = len(stages)
    behavior, runs = _iterate(
        mgr,
        [functools.partial(run_stage, name) for name in stages],
        mgr.register_root(mgr.negate(sym.forbidden)),
        config.early_stop,
        # the stage that changed last is idempotent: once every other stage
        # came up empty, running it again cannot change anything
        quiet=nst - 1 if config.early_stop else None,
        dead=lambda c: (sym.initial & c).is_false,
    )
    return behavior, -(-runs // nst), stage_ops


def _count_states(sym: SymbolicModel, behavior, closed: bool = False):
    """Uncontrolled and controlled reachable state counts, by saturation
    (:meth:`BddManager.saturate`) over one relation per event from
    :func:`relations`, whatever the run's configuration says.

    Each count is the least fixed point ``R`` of ``start & restriction``
    under every event relation, kept inside ``restriction``; ``start`` lies
    inside ``care = restriction & pp``, and so does ``R``, because every
    edge leads from a ``pp`` state to ``pp`` states.  The uncontrolled
    count walks the plant guards within ``true``.  The controlled count
    walks the model's edges within the behavior, not the strengthened guards:
    a strengthened guard is ``relprev(behavior, guard & update)``, so from
    a state of the behavior it allows exactly the steps of its edge that
    end inside the behavior, which are the only steps the count keeps.
    The per-edge relations start where their edges read or write, while a
    strengthened guard spans every level the behavior decides, and
    saturation fires each relation at the pair where it starts.  With
    ``closed``, the behavior is forward-closed from ``sym.initial &
    behavior`` under the same edges (a nonempty run with the forward
    stage), so it is its own controlled reach and is counted as it is.

    Every relation is first simplified against ``pp`` (``restrict``, after
    Coudert & Madre, ICCAD 1990).  This is exact: ``restrict(t, pp)``
    agrees with ``t`` on every step from a ``pp`` state, and saturation
    fires a relation only from states of ``R``, which lie in ``pp``.  It
    matters because a guard may carry ``pp`` over every variable (the
    implication-mode guards of stage 6 keep the domain conjunct of each
    unassigned variable), and so would start at the top pair, where
    saturation falls back to round-robin images; ``restrict`` never adds a
    variable, so the simplified relation starts where its edge reads or
    writes.  With no state in ``pp`` nothing is reachable and both counts
    are 0 (``restrict`` needs a nonempty care set).

    When the model has input variables, with state levels ``I``, a count
    runs over the other variables if (P) holds:

    * (P) ``pp == AND_k EXISTS (I - I_k). pp``: at each valuation of the
      other variables the allowed input valuations form a box, one range
      per input (always true with one input).

    It relies on (R) ``care == EXISTS I. care & pp``: the restriction does
    not constrain the inputs beyond ``pp``.  (R) is not checked.  It holds
    for the plant count's ``true`` restriction and for every behavior
    :func:`synthesize` counts in.  Input events are uncontrollable, so
    every state one input move away from a bad state is bad too; under
    (P) single-input moves connect each box, so controllability keeps all
    of a box or none of it.  A run that stops early with no surviving
    initial state is counted from an empty start, whatever its behavior.
    A direct caller must pass a behavior with (R).

    The projected count drops the input edges, reaches from
    ``EXISTS I. start`` within ``EXISTS I. care`` under ``EXISTS I. (pp &
    t)`` for each remaining event relation ``t``, and counts the result
    conjoined with ``care``.  It is exact: no model edge assigns an input,
    and an input edge moves one input to any other value that keeps
    ``pp``, so single-input moves connect every point of each box, which
    under (R) lies in ``care``.  ``R`` is then closed under changing the
    inputs, i.e. it is the cylinder ``EXISTS I. R & care``, and by
    induction over both fixed points ``EXISTS I. R`` is the projected
    reach: a projected step from ``x`` takes some ``pp`` input valuation
    of ``x``, which (R) puts in ``care`` and the cylinder in ``R``.
    Without (P), single-input moves may not connect the allowed
    valuations (``plant invariant a = b`` allows 00 and 11 only), and the
    count runs over every variable, as it does on a model without inputs.
    The projected relations are simplified once more, against ``pp_free
    = EXISTS I. pp``: the projected reach stays inside ``EXISTS I. care``,
    which lies in ``pp_free``.
    """
    mgr = sym.manager
    enc = sym.enc
    if sym.pp.is_false:
        return 0, 0
    plant_edges = [
        e if e.guard_plant == e.guard
        else dataclasses.replace(e, guard=e.guard_plant)
        for e in sym.edges
    ]
    by_input = [s.levels for s in enc.symvars if s.var.kind == "input"]
    inputs = [lvl for levels in by_input for lvl in levels]
    # (P), which holds trivially with one input
    boxed = bool(inputs) and (len(by_input) == 1 or sym.pp == combine(
        mgr, "and", [
            mgr.exists(sym.pp, [lvl for lvl in inputs if lvl not in levels])
            for levels in by_input
        ],
    ))
    pp_free = mgr.exists(sym.pp, inputs)

    def simplified(edges, project):
        """``(relation, assigned odd levels)`` per event, simplified
        against ``pp``, with the inputs quantified out of ``pp & relation``
        and the result simplified against ``pp_free`` when ``project``."""
        out = []
        for r in relations(enc, sym.events, edges, per_event=True):
            rel = mgr.restrict(r.rel, sym.pp)
            if project:
                rel = mgr.restrict(mgr.exists(sym.pp & rel, inputs), pp_free)
            out.append((rel, r.levels))
        return out

    def count(start, edges, restriction):
        if boxed:
            care = restriction & sym.pp
            free = mgr.exists(care, inputs)
            reached = mgr.saturate(
                mgr.exists(start, inputs),
                simplified([e for e in edges if not e.is_input], True),
                free,
            )
            return mgr.sat_count(reached & care, enc.state_levels)
        reached = mgr.saturate(start, simplified(edges, False), restriction)
        return mgr.sat_count(reached, enc.state_levels)

    if closed:
        controlled = mgr.sat_count(behavior, enc.state_levels)
    else:
        controlled = count(sym.initial & behavior, sym.edges, behavior)
    return count(sym.initial, plant_edges, mgr.true), controlled


def synthesize(
    model: LinearModel, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Order, encode, and synthesize; returns result plus metrics."""
    config = config or SynthesisConfig()
    edges_hyper = varorder.hyperedges(model)
    order = varorder.compute_order(model, config.order, edges_hyper)
    sym = build_symbolic(model, order, plant_inv=config.plant_inv)
    mgr = sym.manager
    # the engine builds its relations here, so building them counts as
    # encoding
    engine = FixedPointEngine(sym, config)

    encode_ops = mgr.op_total
    behavior, sweeps, stage_ops = _synthesize_behavior(engine)
    initial = sym.initial & behavior
    nonempty = not initial.is_false
    before_strengthen = mgr.op_total
    event_guards = _event_guards(engine, behavior)
    for ref in (behavior, initial):
        mgr.register_root(ref)

    stage_ops = {
        "encode": encode_ops, **stage_ops,
        "strengthen": mgr.op_total - before_strengthen,
    }

    metrics = {
        "variables": len(model.variables),
        "bdd_levels": 2 * len(sym.enc.state_levels),
        "order": [model.variables[i].name for i in order],
        "wes": round(varorder.wes(order, edges_hyper), 6),
        "operations": mgr.op_total,
        "stage_operations": stage_ops,
        # work between the stages: negating the forbidden states, the
        # empty-supervisor checks and the initial-state conjunction
        "unstaged_operations": mgr.op_total - sum(stage_ops.values()),
        "edge_applications": engine.edge_applications,
        "reach_calls": engine.reach_calls,
        "sweeps": sweeps,
        "peak_nodes": mgr.peak_nodes,
        "live_nodes": mgr.live_nodes,
        "allocated_nodes": mgr.allocated_nodes,
        "collections": mgr.collections,
        "freed_nodes": mgr.freed_nodes,
        "nonempty": nonempty,
    }

    engine.close()
    before_count = mgr.op_total
    # an empty computed cache makes count_operations a function of the
    # count alone, and the count leaves the cache empty for emission
    start = time.perf_counter()
    with mgr.fresh_cache():
        us, cs = _count_states(sym, behavior, closed=config.forward and nonempty)
    metrics["count_s"] = time.perf_counter() - start
    metrics["count_operations"] = mgr.op_total - before_count
    metrics["uncontrolled_states"] = us
    metrics["controlled_states"] = cs if nonempty else 0

    return SynthesisResult(
        model, config, sym, behavior, initial, nonempty, event_guards, metrics,
    )
