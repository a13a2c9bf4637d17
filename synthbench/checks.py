"""Correctness checks made apart from the synthesis under test.

The reference values come from the structure of each family or from the
explicit-state oracle, never from a second symbolic run of the same model:

* philosophers(n): every fork is free or held by one neighbour, and that
  fixes every philosopher's location, so the plant reaches 3^n states; the
  two circular waits are its only deadlocks, so the supervisor keeps
  3^n - 2.
* chain(n): the reachable states are the n + 1 prefixes b_1..b_i, all in
  the single marked location, so nothing is removed.
* tank(k, cap): no closed form; a small member is compared with
  ``ExplicitOracle`` set by set, and the timed members must keep a
  nonempty supervisor with no more states than the plant.

Every emitted model must re-parse and validate, and synthesizing it again
must keep its controlled-state count (the controlled behavior is a fixed
point of synthesis).
"""

from __future__ import annotations

from efasynth import model as model_mod, parser, synthesis, transform
from efasynth.oracle import ExplicitOracle

__all__ = [
    "CheckFailed", "expected_counts", "oracle_mismatches", "result_errors",
    "emitted_errors",
]


class CheckFailed(Exception):
    """An output of the toolkit disagrees with its reference."""


def expected_counts(family: str, args: tuple) -> tuple[int, int] | None:
    """(uncontrolled, controlled) state counts, where the family fixes them."""
    if family == "philosophers":
        (n,) = args
        return 3 ** n, 3 ** n - 2
    if family == "chain":
        (n,) = args
        return n + 1, n + 1
    return None


def result_errors(label: str, metrics: dict,
                  expected: tuple[int, int] | None) -> list[str]:
    """State counts against the family's closed form, or, where it has
    none, against the properties every supervisor here must have."""
    us, cs = metrics["uncontrolled_states"], metrics["controlled_states"]
    out = []
    if expected is not None and (us, cs) != expected:
        out.append(f"{label}: states {(us, cs)} != {expected}")
    if not metrics["nonempty"] or not 0 < cs <= us:
        out.append(f"{label}: controlled {cs} of {us} uncontrolled")
    return out


def emitted_errors(label: str, text: str, config, controlled: int,
                   resynthesize: bool) -> list[str]:
    """The emitted model re-parses and validates and, when asked, keeps
    ``controlled`` states when synthesized again."""
    back = parser.parse_spec(text, label + ".sup")
    diags = model_mod.validate(back, allow_supervisor=True)
    if diags:
        return [f"{label}: emitted model does not validate: {diags[0]}"]
    if not resynthesize:
        return []
    closed, diags = transform.linearize(transform.plantify(back))
    if diags:
        return [f"{label}: emitted model does not linearize: {diags[0]}"]
    again = synthesis.synthesize(closed, config).metrics["controlled_states"]
    if again != controlled:
        return [f"{label}: re-synthesis keeps {again} states, not {controlled}"]
    return []


def oracle_mismatches(result, model) -> list[str]:
    """Where a synthesis result differs from the explicit oracle: state
    counts, the controlled behavior, and each controllable event's guard.

    Count equality plus membership of every oracle state gives set
    equality, because the symbolic predicates are zero outside the
    in-domain universe once conjoined with the plant invariant ``pp``.
    """
    oracle = ExplicitOracle(model)
    m = result.metrics
    out = []
    if result.nonempty != oracle.nonempty:
        out.append(f"nonempty {result.nonempty} != {oracle.nonempty}")
        return out
    if m["uncontrolled_states"] != len(oracle.plant_reachable):
        out.append(
            f"uncontrolled {m['uncontrolled_states']}"
            f" != {len(oracle.plant_reachable)}"
        )
    want_cs = len(oracle.controlled_reachable) if oracle.nonempty else 0
    if m["controlled_states"] != want_cs:
        out.append(f"controlled {m['controlled_states']} != {want_cs}")
    if not oracle.nonempty:
        return out
    mgr, enc, sym = result.manager, result.sym.enc, result.sym
    levels = enc.state_levels

    def same_set(name, pred, states):
        inside = pred & sym.pp
        if mgr.sat_count(inside, levels) != len(states) or not all(
            mgr.evaluate(inside, oracle.assignment_for(enc, i))
            for i in states
        ):
            out.append(f"{name} differs from the oracle")

    same_set("behavior", result.controlled, oracle.safe)
    for event, guard in result.event_guards.items():
        same_set(f"guard of {event}", guard,
                 oracle.event_guard_states(event, within=oracle.safe))
    return out
