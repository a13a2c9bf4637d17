"""Command-line driver: synthesis runs, benchmarking, model statistics.

Exit codes: 0 success, 1 diagnostics (bad input, bad flags), 2 empty
supervisor, 3 internal invariant violation.  A model too deep for the
recursive BDD kernels exits 1 too.  Every reported metric except
the wall times (``wall_time_s`` and the state count's ``count_s``) is a
deterministic function of the model and configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
import time
from pathlib import Path

from .emit import emit
from .model import Specification, model_stats, validate
from .oracle import ExplicitOracle, UniverseTooLarge
from .parser import ParseError, parse_spec, unparse
from .synthesis import CHOICES, SynthesisConfig, SynthesisResult, synthesize
from .transform import LinearModel, linearize, plantify
from .varorder import OrderError

__all__ = ["main"]

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_EMPTY = 2
EXIT_INTERNAL = 3

_ON_OFF = ("on", "off")  # how a boolean is spelled on the command line


class Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@contextlib.contextmanager
def _kernel_depth(path: Path):
    """Report a model whose BDD operations recurse past Python's limit,
    once per variable level, as a diagnostic rather than a crash."""
    try:
        yield
    except RecursionError:
        raise Failure(
            EXIT_DIAGNOSTICS,
            f"{path}: too many variable levels for the recursive BDD kernels",
        ) from None


def _read_spec(path: Path, allow_supervisor: bool = False) -> Specification:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise Failure(EXIT_DIAGNOSTICS, f"cannot read {path}: {exc}")
    try:
        spec = parse_spec(text, str(path))
        diags = validate(spec, allow_supervisor=allow_supervisor)
    except ParseError as exc:
        raise Failure(EXIT_DIAGNOSTICS, str(exc.diagnostic))
    if diags:
        raise Failure(
            EXIT_DIAGNOSTICS, "\n".join(str(d) for d in diags)
        )
    return spec


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` as it is, in UTF-8; an unwritable path is
    a diagnostic, like an unreadable one."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise Failure(EXIT_DIAGNOSTICS, f"cannot write {path}: {exc}")


def _linearized(spec: Specification) -> tuple[Specification, LinearModel]:
    plant = plantify(spec)
    model, diags = linearize(plant)
    if diags:
        raise Failure(
            EXIT_DIAGNOSTICS, "\n".join(str(d) for d in diags)
        )
    return plant, model


def _toggles():
    """Each configuration field with its flag and whether it is on/off."""
    for field in dataclasses.fields(SynthesisConfig):
        flag = field.name.replace("_", "-")
        yield field, flag, isinstance(field.default, bool)


def _config(args) -> SynthesisConfig:
    # the preset and every field assignment check their values
    try:
        config = SynthesisConfig.preset(args.config)
        for field, _, onoff in _toggles():
            value = getattr(args, field.name)
            if value is not None:
                setattr(config, field.name, value == "on" if onoff else value)
    except ValueError as exc:
        raise Failure(EXIT_DIAGNOSTICS, str(exc))
    return config


def _shown(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def _fingerprint(config: SynthesisConfig, simplify: bool | None = None) -> str:
    parts = [
        f"{flag}={_shown(getattr(config, field.name))}"
        for field, flag, _ in _toggles()
    ]
    if simplify is not None:
        parts.append(f"simplify={_shown(simplify)}")
    return " ".join(parts)


# ----------------------------------------------------------------------
# run


def _report(path: Path, config: SynthesisConfig, result: SynthesisResult,
            simplify: bool, wall: float) -> dict:
    m = result.metrics
    return {
        "schema": 1,
        "model": path.stem,
        "config": _fingerprint(config, simplify),
        "variables": m["variables"],
        "bdd_levels": m["bdd_levels"],
        "order": m["order"],
        "wes": m["wes"],
        "operations": m["operations"],
        "stage_operations": m["stage_operations"],
        "unstaged_operations": m["unstaged_operations"],
        "count_operations": m["count_operations"],
        "count_s": round(m["count_s"], 6),
        "peak_nodes": m["peak_nodes"],
        "live_nodes": m["live_nodes"],
        "allocated_nodes": m["allocated_nodes"],
        "edge_applications": m["edge_applications"],
        "reach_calls": m["reach_calls"],
        "sweeps": m["sweeps"],
        "uncontrolled_states": m["uncontrolled_states"],
        "controlled_states": m["controlled_states"],
        "empty_supervisor": not result.nonempty,
        "wall_time_s": round(wall, 6),
    }


def _print_report(report: dict) -> None:
    skip = {"schema", "stage_operations", "order"}
    width = max(len(key) for key in report)
    for key, value in report.items():
        if key in skip:
            continue
        print(f"{key:<{width}}  {value}")
        if key == "operations":
            for stage, ops in report["stage_operations"].items():
                print(f"  {stage:<{width - 2}}  {ops}")


def cmd_run(args) -> int:
    path = Path(args.model)
    spec = _read_spec(path)
    plant, model = _linearized(spec)
    config = _config(args)
    simplify = args.simplify == "on"
    start = time.perf_counter()
    try:
        with _kernel_depth(path):
            result = synthesize(model, config)
    except OrderError as exc:
        raise Failure(EXIT_DIAGNOSTICS, str(exc))
    wall = time.perf_counter() - start
    report = _report(path, config, result, simplify, wall)
    _print_report(report)
    if args.stats_json:
        _write(args.stats_json, json.dumps(report, indent=2) + "\n")
    if not result.nonempty:
        print("empty supervisor")
        return EXIT_EMPTY
    out_path = Path(args.out) if args.out else path.with_suffix(".sup.efa")
    with _kernel_depth(path):
        text = unparse(emit(plant, result, simplify=simplify))
    _write(out_path, text)
    print(f"wrote {out_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# bench

BENCH_COLUMNS = [
    "model", "config", "operations", "peak_nodes", "uncontrolled_states",
    "controlled_states", "edge_applications", "op_factor", "node_factor",
    "deterministic",
]


def _counters(metrics: dict) -> dict:
    """The metrics without ``count_s``, the one wall time among them."""
    return {k: v for k, v in metrics.items() if k != "count_s"}


def _factor(base: int, value: int) -> float | None:
    """``base / value`` to three places; None when ``value`` is 0."""
    return round(base / value, 3) if value else None


def cmd_bench(args) -> int:
    suite = Path(args.dir)
    paths = sorted(
        p for p in suite.glob("*.efa") if not p.name.endswith(".sup.efa")
    )
    if not paths:
        raise Failure(EXIT_DIAGNOSTICS, f"no .efa models in {suite}")
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    if not configs:
        raise Failure(EXIT_DIAGNOSTICS, "no configurations given")
    for name in configs:
        try:
            SynthesisConfig.preset(name)
        except ValueError as exc:
            raise Failure(EXIT_DIAGNOSTICS, str(exc))

    rows = []
    for path in paths:
        spec = _read_spec(path)
        plant, model = _linearized(spec)
        for name in configs:
            with _kernel_depth(path):
                reps = [
                    synthesize(model, SynthesisConfig.preset(name)).metrics
                    for _ in range(args.reps)
                ]
            first = reps[0]
            rows.append({
                "model": path.stem,
                "config": name,
                "operations": first["operations"],
                "peak_nodes": first["peak_nodes"],
                "uncontrolled_states": first["uncontrolled_states"],
                "controlled_states": first["controlled_states"],
                "edge_applications": first["edge_applications"],
                "deterministic": all(
                    _counters(m) == _counters(first) for m in reps
                ),
            })

    baseline = {
        row["model"]: row for row in rows if row["config"] == configs[0]
    }
    for row in rows:
        base = baseline[row["model"]]
        row["op_factor"] = _factor(base["operations"], row["operations"])
        row["node_factor"] = _factor(base["peak_nodes"], row["peak_nodes"])

    rows = [{key: row[key] for key in BENCH_COLUMNS} for row in rows]
    # a factor without a divisor is null in JSON, empty in CSV, '-' here
    shown = [
        {key: "-" if row[key] is None else str(row[key]) for key in row}
        for row in rows
    ]
    widths = {
        key: max(len(key), *(len(row[key]) for row in shown))
        for key in BENCH_COLUMNS
    }
    print("  ".join(key.ljust(widths[key]) for key in BENCH_COLUMNS))
    for row in shown:
        print("  ".join(row[key].ljust(widths[key]) for key in BENCH_COLUMNS))
    if any(not row["deterministic"] for row in rows):
        print("warning: non-identical repetitions flagged above")

    if args.csv:
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _write(args.csv, table.getvalue())
    if args.json:
        payload = {"schema": 1, "baseline": configs[0], "rows": rows}
        _write(args.json, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# stats and oracle


def cmd_stats(args) -> int:
    spec = _read_spec(Path(args.model), allow_supervisor=True)
    stats = model_stats(spec)
    for field in dataclasses.fields(stats):
        print(f"{field.name:<8}{getattr(stats, field.name)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec = _read_spec(Path(args.model), allow_supervisor=True)
    plant, model = _linearized(spec)
    try:
        oracle = ExplicitOracle(model, cap=args.cap)
    except UniverseTooLarge as exc:
        raise Failure(EXIT_DIAGNOSTICS, str(exc))
    except RecursionError:  # the reference evaluator is a plain recursion
        message = f"{args.model}: expressions too long for the explicit oracle"
        raise Failure(EXIT_DIAGNOSTICS, message)
    lines = [
        ("universe", len(oracle.states)),
        ("initial", len(oracle.initial)),
        ("marked", len(oracle.marked)),
        ("forbidden", len(oracle.forbidden)),
        ("safe", len(oracle.safe)),
        ("uncontrolled_states", len(oracle.plant_reachable)),
        ("controlled_states",
         len(oracle.controlled_reachable) if oracle.nonempty else 0),
        ("empty_supervisor", not oracle.nonempty),
    ]
    for key, value in lines:
        print(f"{key:<20}  {value}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # empty-supervisor code; usage problems are diagnostics here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise Failure(EXIT_DIAGNOSTICS, message)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, not {text!r}"
        )
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="synth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="synthesize a supervisor for one model")
    run.add_argument("model", help="input .efa file")
    run.add_argument("--config", default="v40", help="preset: v08 or v40")
    # one flag per configuration field, each overriding the preset
    for field, flag, onoff in _toggles():
        run.add_argument(
            f"--{flag}", dest=field.name, default=None,
            choices=_ON_OFF if onoff else CHOICES.get(field.name),
            help=field.metadata.get("help"),
        )
    run.add_argument("--simplify", choices=_ON_OFF, default="on",
                     help="simplify emitted guards against the context")
    run.add_argument("--stats-json", default=None, dest="stats_json",
                     help="also write the report as JSON")
    run.add_argument("--out", default=None, help="output model path")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="compare configurations on a suite")
    bench.add_argument("dir", help="directory of .efa models")
    bench.add_argument("--configs", default="v08,v40",
                       help="comma-separated presets; first is the baseline")
    bench.add_argument("--reps", type=_positive_int, default=2,
                       help="repetitions per run to verify determinism")
    bench.add_argument("--csv", default=None, help="write the table as CSV")
    bench.add_argument("--json", default=None, help="write the table as JSON")
    bench.set_defaults(func=cmd_bench)

    stats = sub.add_parser("stats", help="structural model statistics")
    stats.add_argument("model")
    stats.set_defaults(func=cmd_stats)

    oracle = sub.add_parser(
        "oracle", help="explicit-state cross-check (small models only)"
    )
    oracle.add_argument("model")
    oracle.add_argument("--cap", type=_positive_int, default=10 ** 6,
                        help="refuse universes larger than this")
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a broken pipe raises here, not at shutdown
        return code
    except Failure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code
    except BrokenPipeError:  # stdout's reader left; let no flush raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DIAGNOSTICS
    except Exception as exc:  # noqa: BLE001 - exit code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
