"""Layered synthesis benchmark: generated model families, timed end to end.

Run from the root of a checkout:

    python3 synthbench/run.py --workload philo --seed 1 --seconds 30 --trace 0

The toolkit is imported from ``src/`` of the current directory.  A run sets
up its models several times, then repeats whole rounds (every model of the
workload, from its linearized model to the emitted model text) while a
round of median length still ends within ``--seconds``, checks every
output, and prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs span
tracing around the toolkit's public functions, reports the per-layer
metrics, prints each layer's self time and writes the spans to
``.synthbench/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import speed  # noqa: E402

# Each set-up pass lasts milliseconds; ``setup_s`` is the median over this
# many passes.
SETUP_PASSES = 25
# A median needs a few rounds even when they outlast ``--seconds``.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    preset: str
    models: tuple  # (family, size arguments), smallest first
    oracle_model: tuple | None = None  # small member checked by the oracle


# Sizes keep one round between 3 and 6 seconds, so a 30-second run holds
# 5 to 10 rounds; README.md gives the reasons for each.
WORKLOADS = {
    # Nonblocking fixed point: per-event merged relations, relprev, the
    # computed cache and reference counting; no uncontrollable events.
    "philo": Workload("v40", (
        ("philosophers", (8,)),
        ("philosophers", (10,)),
        ("philosophers", (12,)),
    )),
    # Variable ordering and the forward state count; the fixed point does
    # no work, so a fixed-point optimisation must show no change here.
    "chain": Workload("v40", (("chain", (100,)), ("chain", (200,)))),
    # The v08 baseline: bit vectors and range errors, an input variable,
    # a requirement automaton, the controllability stage, naive edge
    # application with per-edge granularity and full sweeps.
    "tank": Workload("v08", (("tank", (2, 40)), ("tank", (3, 24))),
                     ("tank", (2, 12))),
}


def tag_for(seed: int) -> str:
    """Seeded prefix for every global name of the generated models.

    The prefix has a fixed length and is shared by all names, so it keeps
    their sort order and the emitted text's length: the work and every
    counter are the same for all seeds, only the emitted names change."""
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4)) + "_"


def import_toolkit(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import efasynth
    except ImportError as exc:
        raise SystemExit(f"cannot import efasynth from {src}: {exc}")
    where = Path(efasynth.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"efasynth imported from {where}, not from {src}")


@dataclass
class Prepared:
    label: str
    plant: object  # plantified Specification
    model: object  # LinearModel
    expected: tuple[int, int] | None


def prepare(workload: Workload, tag: str) -> list[Prepared]:
    """One set-up pass: generate, parse, validate, plantify, linearize."""
    from efasynth import model as model_mod, parser, transform
    from checks import CheckFailed, expected_counts

    out = []
    for family, args in workload.models:
        label = f"{family}{args}"
        text = getattr(families, family)(*args, tag=tag)
        spec = parser.parse_spec(text, label)
        diags = model_mod.validate(spec)
        if diags:
            raise CheckFailed(f"{label}: {diags[0]}")
        plant = transform.plantify(spec)
        linear, diags = transform.linearize(plant)
        if diags:
            raise CheckFailed(f"{label}: {diags[0]}")
        out.append(Prepared(label, plant, linear,
                            expected_counts(family, args)))
    return out


@dataclass
class Record:
    metrics: dict
    ops: dict  # op_counts() right after synthesize
    emit_ops: int
    allocated: int  # nodes allocated once the text is emitted
    text: str


def synthesize_and_emit(p: Prepared, config) -> Record:
    """The timed unit: one model from its linearized form to emitted text."""
    from efasynth import emit, parser, synthesis

    result = synthesis.synthesize(p.model, config)
    mgr = result.manager
    ops = mgr.op_counts()
    before = mgr.op_total
    text = parser.unparse(emit.emit(p.plant, result))
    return Record(result.metrics, ops, mgr.op_total - before,
                  mgr.allocated_nodes, text)


def oracle_errors(workload: Workload, tag: str, config) -> list[str]:
    from efasynth import parser, synthesis, transform
    from checks import oracle_mismatches

    family, args = workload.oracle_model
    text = getattr(families, family)(*args, tag=tag)
    linear, _ = transform.linearize(
        transform.plantify(parser.parse_spec(text))
    )
    result = synthesis.synthesize(linear, config)
    return [f"{family}{args}: {e}"
            for e in oracle_mismatches(result, linear)]


class Layers:
    """Readings of a tracer's running totals over one interval."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._mark = tracer.snapshot()

    def mark(self) -> None:
        self._mark = self.tracer.snapshot()

    def since_mark(self) -> tuple[dict, dict, dict]:
        (c0, t0, s0), (c1, t1, s1) = self._mark, self.tracer.snapshot()

        def diff(a, b):
            return {k: b[k] - a.get(k, 0) for k in b}

        self.mark()
        return diff(c0, c1), diff(t0, t1), diff(s0, s1)


def setup_layer_values(window) -> dict:
    _, total, _ = window
    return {
        "parser.parse_s": total.get("parser.parse", 0.0),
        "model.validate_s": total.get("model.validate", 0.0),
        "transform.plantify_s": total.get("transform.plantify", 0.0),
        "transform.linearize_s": total.get("transform.linearize", 0.0),
    }


def round_layer_values(window, records: list[Record], prepared) -> dict:
    from spans import ROUND_LAYERS, layer_of

    calls, total, selft = window

    def t(name):
        return total.get(name, 0.0)

    def stage(key):
        return sum(r.metrics["stage_operations"][key] for r in records)

    out = {
        "transform.lin_edges": sum(len(p.model.edges) for p in prepared),
        "varorder.order_s": t("varorder.order"),
        "varorder.wes_calls": calls.get("varorder.wes", 0),
        "varorder.wes": statistics.fmean(r.metrics["wes"] for r in records),
        "encode.build_s": t("encode.build"),
        "encode.ops": stage("encode"),
        "synthesis.nonblocking_s": t("synthesis.nonblocking"),
        "synthesis.nonblocking_ops": stage("nonblocking"),
        "synthesis.controllability_s": t("synthesis.controllability"),
        "synthesis.controllability_ops": stage("controllability"),
        "synthesis.strengthen_ops": stage("strengthen"),
        # the forward reach calls plus the sat counts, both of which only
        # the state-count stage makes inside a round
        "synthesis.count_s": t("synthesis.count") + t("bdd.sat_count"),
        "synthesis.edge_apps": sum(r.metrics["edge_applications"] for r in records),
        "synthesis.reach_calls": sum(r.metrics["reach_calls"] for r in records),
        "synthesis.sweeps": sum(r.metrics["sweeps"] for r in records),
        "bdd.relprev_calls": calls.get("bdd.relprev", 0),
        "bdd.relprev_s": t("bdd.relprev"),
        "bdd.relnext_calls": calls.get("bdd.relnext", 0),
        "bdd.relnext_s": t("bdd.relnext"),
        "bdd.apply_s": t("bdd.apply"),
        "bdd.exists_s": t("bdd.exists"),
        "bdd.replace_s": t("bdd.replace"),
        "bdd.sat_count_s": t("bdd.sat_count"),
        "bdd.count_ops": sum(
            sum(r.ops.values()) - r.metrics["operations"] for r in records
        ),
        "bdd.alloc_nodes": sum(r.allocated for r in records),
        "emit.emit_s": t("emit.emit"),
        "emit.lower_s": t("emit.lower"),
        "emit.ops": sum(r.emit_ops for r in records),
        "parser.unparse_s": t("parser.unparse"),
    }
    for op in records[0].ops:
        out[f"bdd.ops.{op}"] = sum(r.ops[op] for r in records)
    for layer in ROUND_LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in selft.items() if layer_of(k) == layer
        )
    return out


def unit_of(name: str) -> str:
    if name == "varorder.wes":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def run(args) -> dict:
    root = Path.cwd()
    import_toolkit(root)
    from efasynth.synthesis import SynthesisConfig
    from checks import CheckFailed, emitted_errors, result_errors

    workload = WORKLOADS[args.workload]
    tag = tag_for(args.seed)
    config = SynthesisConfig.preset(workload.preset)

    tracer = layers = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        layers = Layers(tracer)

    clock = speed.Clock(tracer.hide(speed.probe) if tracer else speed.probe)
    errors: list[str] = []
    setup_times, setup_rows = [], []
    try:
        for _ in range(SETUP_PASSES):
            gc.collect()
            clock.skip()
            if layers:
                layers.mark()
            prepared, _, scaled = clock.time(prepare, workload, tag)
            setup_times.append(scaled)
            if layers:
                setup_rows.append(setup_layer_values(layers.since_mark()))
    except CheckFailed as exc:
        raise SystemExit(f"set-up failed: {exc}")

    if workload.oracle_model is not None:
        errors += oracle_errors(workload, tag, config)

    round_times, round_walls, round_rows = [], [], []
    first: list[Record | None] = [None] * len(prepared)
    attempted = failed = 0
    sums = None
    deadline = time.perf_counter() + args.seconds
    # A round starts only if a round of median wall time still ends before
    # the deadline, so a run measures whole rounds within ``--seconds``.
    while len(round_walls) < MIN_ROUNDS or (
        time.perf_counter() + statistics.median(round_walls) < deadline
    ):
        gc.collect()
        clock.skip()
        if layers:
            layers.mark()
        records, wall, scaled = [], 0.0, 0.0
        for p in prepared:
            try:
                rec, w, s = clock.time(synthesize_and_emit, p, config)
            except Exception:  # noqa: BLE001 - counted as a failed synthesis
                traceback.print_exc()
                clock.skip()
                records.append(None)
                continue
            records.append(rec)
            wall += w
            scaled += s
        window = layers.since_mark() if layers else None
        round_walls.append(wall)
        attempted += len(records)
        failed += records.count(None)
        if None in records:
            continue
        round_times.append(scaled)
        for i, (p, rec) in enumerate(zip(prepared, records)):
            errors += result_errors(p.label, rec.metrics, p.expected)
            if first[i] is None:
                first[i] = rec
            elif (rec.metrics["operations"], rec.metrics["peak_nodes"],
                  rec.text) != (first[i].metrics["operations"],
                                first[i].metrics["peak_nodes"], first[i].text):
                errors.append(
                    f"{p.label}: counters or emitted text differ between rounds"
                )
        if sums is None:
            sums = (
                sum(r.metrics["operations"] for r in records),
                sum(r.metrics["peak_nodes"] for r in records),
                sum(len(r.text.encode()) for r in records),
            )
        if layers:
            row = round_layer_values(window, records, prepared)
            row["trace.synth_s"] = scaled
            row["trace.wall_s"] = wall
            round_rows.append(row)
        del records
    # Read before the re-synthesis checks so they cannot set the mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Re-synthesizing an emitted model costs up to three times the first
    # synthesis, so only the smallest model of a ladder goes through it;
    # every emitted text is re-parsed and validated.
    for i, (p, rec) in enumerate(zip(prepared, first)):
        if rec is not None:
            errors += emitted_errors(p.label, rec.text, config,
                                     rec.metrics["controlled_states"],
                                     resynthesize=i == 0)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if sums is None:
        raise SystemExit("no round finished without a failed synthesis")

    if layers:
        values = {**median_of(setup_rows), **median_of(round_rows)}
        print_layers(values)
        out_dir = root / ".synthbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        payload = {"workload": args.workload, "seed": args.seed,
                   "rounds": round_rows, "setup_passes": setup_rows,
                   **tracer.to_json()}
        path.write_text(json.dumps(payload) + "\n")
        print(f"wrote {path.relative_to(root)}")
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
    else:
        bdd_ops, peak_nodes, sup_bytes = sums
        metrics = {
            "synth_s": {"value": statistics.median(round_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "bdd_ops": {"value": bdd_ops, "unit": "count"},
            "peak_nodes": {"value": peak_nodes, "unit": "count"},
            "sup_bytes": {"value": sup_bytes, "unit": "B"},
        }
    print(f"{args.workload}: {len(round_walls)} rounds, {attempted} syntheses,"
          f" {failed} failed; median round {statistics.median(round_walls):.4f}"
          f" s wall, {statistics.median(round_times):.4f} s scaled",
          file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_layers(values: dict) -> None:
    """Each layer's self time per round next to the traced round time."""
    from spans import ROUND_LAYERS

    wall = values["trace.wall_s"]
    print(f"{'layer':<12}{'self_s':>10}{'share':>8}   (traced round:"
          f" {wall:.4f} s wall, synth_s {values['trace.synth_s']:.4f} s)")
    covered = 0.0
    for layer in ROUND_LAYERS:
        value = values[f"{layer}.self_s"]
        covered += value
        print(f"{layer:<12}{value:>10.4f}{value / wall:>8.1%}")
    print(f"{'all layers':<12}{covered:>10.4f}{covered / wall:>8.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print(json.dumps(run(args)))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
