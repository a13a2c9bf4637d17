"""Command-line driver: reports, outputs, exit codes."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import efasynth
import efasynth.cli as cli
from efasynth import synthesis
from efasynth.cli import main
from efasynth.model import validate
from efasynth.parser import parse_spec
from efasynth.synthesis import SynthesisConfig, synthesize
from efasynth.transform import linearize, plantify
from efasynth.varorder import STRATEGIES


EMPTY_SUPERVISOR = """
uncontrollable tick;

plant clock {
  disc int[0..3] x = 0;

  location l:
    initial; marked;
    edge tick when x < 3 do x := x + 1;
}

requirement invariant x <= 2;
"""


@pytest.fixture
def producer(models_dir):
    return str(models_dir / "producer_consumer.efa")


def test_run_writes_supervisor_and_report(producer, tmp_path, capsys):
    out = tmp_path / "controlled.efa"
    assert main(["run", producer, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "uncontrolled_states  482" in stdout
    assert "controlled_states    249" in stdout
    assert f"wrote {out}" in stdout
    spec = parse_spec(out.read_text())
    assert validate(spec, allow_supervisor=True) == []
    assert any(aut.kind == "supervisor" for aut in spec.automata)


def test_run_default_output_path(producer, tmp_path, capsys):
    src = tmp_path / "copy.efa"
    src.write_text(open(producer).read())
    assert main(["run", str(src)]) == 0
    assert (tmp_path / "copy.sup.efa").exists()


def test_run_stats_json(producer, tmp_path, capsys):
    stats = tmp_path / "report.json"
    assert main([
        "run", producer, "--out", str(tmp_path / "o.efa"),
        "--stats-json", str(stats),
    ]) == 0
    report = json.loads(stats.read_text())
    assert report["schema"] == 1
    assert report["model"] == "producer_consumer"
    assert report["uncontrolled_states"] == 482
    assert report["controlled_states"] == 249
    assert report["empty_supervisor"] is False
    assert set(report["stage_operations"]) == {
        "encode", "nonblocking", "controllability", "strengthen"
    }
    assert report["operations"] > 0 and report["peak_nodes"] > 0
    assert report["count_operations"] > 0
    assert report["count_s"] >= 0
    assert report["unstaged_operations"] + sum(
        report["stage_operations"].values()
    ) == report["operations"]


def test_run_config_fingerprint_reflects_overrides(producer, tmp_path, capsys):
    assert main([
        "run", producer, "--config", "v08", "--early-stop", "on",
        "--out", str(tmp_path / "o.efa"),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "order=pipeline-v08" in stdout
    assert "early-stop=on" in stdout
    assert "edge-apply=naive" in stdout


def test_preset_fingerprints():
    assert cli._fingerprint(SynthesisConfig.preset("v08")) == (
        "order=pipeline-v08 granularity=edge edge-apply=naive early-stop=off"
        " forward=off plant-inv=restrict"
    )
    assert cli._fingerprint(SynthesisConfig.preset("v40"), True) == (
        "order=pipeline-v40 granularity=event edge-apply=compound"
        " early-stop=on forward=off plant-inv=implication simplify=on"
    )


def _flag_values():
    for field in dataclasses.fields(SynthesisConfig):
        flag = field.name.replace("_", "-")
        if isinstance(field.default, bool):
            values = ("on", "off")
        else:
            values = synthesis.CHOICES.get(field.name, STRATEGIES)
        for value in values:
            yield pytest.param(flag, value, id=f"{flag}={value}")


@pytest.mark.parametrize("flag, value", _flag_values())
def test_run_accepts_every_toggle_value(producer, tmp_path, capsys, flag,
                                        value):
    assert main([
        "run", producer, f"--{flag}", value, "--out", str(tmp_path / "o.efa"),
    ]) == 0
    config_line = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("config ")
    )
    assert f"{flag}={value}" in config_line.split()


@pytest.mark.parametrize("field", ["early_stop", "forward"])
def test_run_bad_preset_value_exits_1(producer, monkeypatch, capsys, field):
    monkeypatch.setitem(synthesis.PRESETS, "broken", {field: "off"})
    assert main(["run", producer, "--config", "broken"]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"unknown {field} 'off'" in err


def test_run_empty_supervisor_exits_2(tmp_path, capsys):
    model = tmp_path / "empty.efa"
    model.write_text(EMPTY_SUPERVISOR)
    assert main(["run", str(model)]) == 2
    stdout = capsys.readouterr().out
    assert "empty supervisor" in stdout
    assert not (tmp_path / "empty.sup.efa").exists()


def test_run_parse_error_exits_1(tmp_path, capsys):
    model = tmp_path / "bad.efa"
    model.write_text("plant {\n")
    assert main(["run", str(model)]) == 1
    assert "expected" in capsys.readouterr().err


def test_run_non_decimal_digit_exits_1(tmp_path, capsys):
    model = tmp_path / "bad.efa"
    model.write_text(_guarded("x = \u00b2"))
    assert main(["run", str(model)]) == 1
    err = capsys.readouterr().err
    assert "unexpected character" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["run", "stats", "oracle"])
def test_model_not_in_utf8_exits_1(tmp_path, capsys, command):
    model = tmp_path / "bad.efa"
    model.write_bytes(b"controllable a\xff;\n")
    assert main([command, str(model)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"cannot read {model}: " in err


def test_run_reads_and_writes_utf8_in_an_ascii_locale(tmp_path):
    model, out = tmp_path / "m.efa", tmp_path / "m.sup.efa"
    model.write_bytes(
        "controllable é;\nplant p {\n  disc bool ß = false;\n"
        "  location l: initial; marked; edge é do ß := true;\n}\n"
        .encode("utf-8")
    )
    src = pathlib.Path(efasynth.__file__).resolve().parent.parent
    # the C locale without UTF-8 mode or locale coercion: ASCII by default
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "efasynth.cli", "run", str(model),
         "--out", str(out)],
        capture_output=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    emitted = out.read_text(encoding="utf-8")
    assert "edge é;" in emitted and "disc bool ß = false;" in emitted


def test_run_rejects_supervisor_input(producer, tmp_path, capsys):
    out = tmp_path / "sup.efa"
    assert main(["run", producer, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out)]) == 1
    assert "supervisor" in capsys.readouterr().err


def test_run_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nothing.efa")]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["run"]) == 1
    assert main(["frobnicate"]) == 1


def test_internal_error_exits_3(producer, monkeypatch, capsys):
    def boom(model, config):
        raise RuntimeError("corrupted node table")

    monkeypatch.setattr(cli, "synthesize", boom)
    assert main(["run", producer]) == 3
    assert "internal error" in capsys.readouterr().err


def test_bench_table_csv_json(producer, tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "producer_consumer.efa").write_text(open(producer).read())
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    assert main([
        "bench", str(suite), "--reps", "2",
        "--csv", str(csv_path), "--json", str(json_path),
    ]) == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == (
        "model,config,operations,peak_nodes,uncontrolled_states,"
        "controlled_states,edge_applications,op_factor,node_factor,"
        "deterministic"
    )
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    assert payload["baseline"] == "v08"
    by_config = {row["config"]: row for row in payload["rows"]}
    assert by_config["v08"]["op_factor"] == 1.0
    assert by_config["v08"]["node_factor"] == 1.0
    assert by_config["v40"]["op_factor"] >= 1.0
    assert all(row["deterministic"] for row in payload["rows"])
    assert all(
        row["controlled_states"] == 249 for row in payload["rows"]
    )


def test_bench_ignores_emitted_models(producer, tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "producer_consumer.efa").write_text(open(producer).read())
    assert main(["run", str(suite / "producer_consumer.efa")]) == 0
    capsys.readouterr()
    assert main(["bench", str(suite), "--reps", "1"]) == 0
    stdout = capsys.readouterr().out
    assert "producer_consumer.sup" not in stdout


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command, flag", [
    ("run", "--out"), ("run", "--stats-json"),
    ("bench", "--csv"), ("bench", "--json"),
])
def test_unwritable_output_exits_1(producer, tmp_path, capsys, command,
                                   flag, target):
    suite = tmp_path / "suite"
    suite.mkdir()
    model = suite / "producer_consumer.efa"
    model.write_text(open(producer).read())
    path = tmp_path / "no" / "x.out" if target == "missing" else tmp_path
    args = [str(model)] if command == "run" else [str(suite), "--reps", "1"]
    assert main([command, *args, flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"cannot write {path}: " in err


def test_bench_empty_dir_exits_1(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 1


@pytest.mark.parametrize("order", ["bogus", "custom:foo"])
def test_run_bad_order_exits_1(producer, tmp_path, capsys, order):
    out = tmp_path / "o.efa"
    assert main(["run", producer, "--order", order, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "order" in err
    assert not out.exists()


def _guarded(guard):
    return f"""
controllable go;
plant p {{
  disc int[0..3] x = 0;
  location l:
    initial; marked;
    edge go when {guard} do x := 0;
}}
"""


def test_run_parses_deep_parentheses(tmp_path, capsys):
    model = tmp_path / "deep.efa"
    model.write_text(_guarded("(" * 130 + "x = 0" + ")" * 130))
    assert main(["run", str(model)]) == 0


# Nesting has no depth limit either: the parser keeps explicit stacks.
@pytest.mark.parametrize("guard", [
    "(" * 1000 + "x = 0" + ")" * 1000,
    "not " * 3000 + "(x = 0)",
], ids=["parens", "prefix"])
def test_run_deeply_nested_expression_exits_0(tmp_path, capsys, guard):
    model = tmp_path / "deep.efa"
    model.write_text(_guarded(guard))
    assert main(["run", str(model)]) == 0
    assert "internal error" not in capsys.readouterr().err


# Chains of binary operators have no length limit: every walk over an
# expression is an iterative fold.
@pytest.mark.parametrize("text", [
    _guarded(" + ".join(["x"] * 600) + " = 0"),
    _guarded(" or ".join(f"x = {2 * i}" for i in range(2000)))
    .replace("int[0..3]", "int[0..3999]"),
], ids=["sum600", "or2000"])
def test_run_long_expression_exits_0(tmp_path, capsys, text):
    model = tmp_path / "long.efa"
    model.write_text(text)
    assert main(["run", str(model)]) == 0
    assert "internal error" not in capsys.readouterr().err


PARITY = """
controllable inc;
plant p {
  disc int[0..1999] x = 0;
  location l:
    initial; marked;
    edge inc when x < 1999 do x := x + 1;
}
requirement invariant inc needs x mod 2 = 0;
"""


def _controlled_states(spec):
    model, diags = linearize(plantify(spec))
    assert diags == []
    return synthesize(model, SynthesisConfig()).metrics["controlled_states"]


def test_run_emits_and_reads_back_a_long_guard(tmp_path, capsys):
    # unsimplified, the supervisor's guard lists the 1,000 even values
    model, out = tmp_path / "parity.efa", tmp_path / "parity.sup.efa"
    model.write_text(PARITY)
    assert main(["run", str(model), "--simplify", "off",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count(" or ") == 999
    spec = parse_spec(text)
    assert validate(spec, allow_supervisor=True) == []
    assert _controlled_states(spec) == _controlled_states(parse_spec(PARITY))
    # the explicit oracle evaluates by plain recursion and refuses it
    assert main(["oracle", str(out)]) == 1
    assert "internal error" not in capsys.readouterr().err


def test_model_too_deep_for_the_kernels_exits_1(families, tmp_path, capsys):
    # the BDD kernels recurse once per level, and chain(1000) takes the
    # state count's saturation past Python's recursion limit
    model = tmp_path / "chain_1000.efa"
    model.write_text(families.chain(1000))
    assert main(["run", str(model), "--out", str(tmp_path / "out.efa")]) == 1
    assert main(["bench", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"{model}: too many variable levels for the recursive BDD kernels"
    ] * 2
    assert not (tmp_path / "out.efa").exists()


WIDE = "controllable go;\nplant p {\n" + "".join(
    f"  disc bool b{i} = false;\n" for i in range(600)
) + "  location l:\n    initial; marked;\n    edge go;\n}\n"


def test_run_emits_and_reads_back_a_wide_initial_predicate(tmp_path, capsys):
    # unsimplified, the initial predicate conjoins 600 negations, and its
    # diagram is a chain of 600 decision nodes
    model, out = tmp_path / "wide.efa", tmp_path / "wide.sup.efa"
    model.write_text(WIDE)
    assert main(["run", str(model), "--simplify", "off",
                 "--out", str(out)]) == 0
    assert "internal error" not in capsys.readouterr().err
    spec = parse_spec(out.read_text())
    assert validate(spec, allow_supervisor=True) == []
    assert _controlled_states(spec) == _controlled_states(parse_spec(WIDE))


@pytest.mark.parametrize("config", ["v08", "v40"])
def test_run_unsatisfiable_plant_invariant_exits_2(tmp_path, capsys, config):
    # no state satisfies the plant invariant, so the restrict-based guard
    # strengthening of v08 has an empty care set
    model = tmp_path / "none.efa"
    model.write_text(_guarded("x < 3") + "plant invariant x > 3;\n")
    assert main(["run", str(model), "--config", config]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("forward", ["off", "on"])
@pytest.mark.parametrize("plant_inv", ["implication", "restrict"])
@pytest.mark.parametrize("config", ["v08", "v40"])
def test_run_with_inputs_and_no_plant_state_counts_nothing(
    tmp_path, capsys, config, plant_inv, forward
):
    # with an input, the count would take the projected path; with no
    # state in the plant invariants there is nothing to count
    model, stats = tmp_path / "none.efa", tmp_path / "stats.json"
    model.write_text(
        _guarded("x < 3").replace("controllable go;",
                                  "controllable go;\ninput bool i;")
        + "plant invariant x > 3;\n"
    )
    assert main(["run", str(model), "--config", config,
                 "--plant-inv", plant_inv, "--forward", forward,
                 "--stats-json", str(stats)]) in (0, 2)
    assert "internal error" not in capsys.readouterr().err
    report = json.loads(stats.read_text())
    assert (report["uncontrolled_states"], report["controlled_states"]) == (0, 0)


@pytest.mark.parametrize("config", ["v08", "v40"])
def test_run_simplifies_a_never_enabled_event(tmp_path, capsys, config):
    # 'stop' is never enabled, so its guard is simplified against nothing
    model, out = tmp_path / "never.efa", tmp_path / "never.sup.efa"
    model.write_text(
        _guarded("x < 3").replace("controllable go;", "controllable go, stop;")
        .replace("do x := 0;", "do x := 0;\n    edge stop when false;")
    )
    assert main(["run", str(model), "--config", config, "--simplify", "on",
                 "--out", str(out)]) == 0
    spec = parse_spec(out.read_text())
    assert validate(spec, allow_supervisor=True) == []


@pytest.mark.parametrize("unbuffered", [False, True])
def test_run_into_closed_pipe_exits_1(producer, tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = pathlib.Path(efasynth.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # each print writes at once; otherwise stdout is buffered
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "efasynth.cli", "run", producer,
             "--out", str(tmp_path / "o.efa")],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "internal error" not in err
    assert "Exception ignored" not in err
    assert err == ""  # not some other exit-1 failure, such as a missing file


def test_bench_without_operations_shows_no_factor(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "still.efa").write_text(
        "controllable go;\nplant p {\n  location l:\n    initial; marked;\n"
        "    edge go;\n}\n"
    )
    csv_path, json_path = tmp_path / "table.csv", tmp_path / "table.json"
    assert main([
        "bench", str(suite), "--reps", "1",
        "--csv", str(csv_path), "--json", str(json_path),
    ]) == 0
    rows = json.loads(json_path.read_text())["rows"]
    assert [row["operations"] for row in rows] == [0, 0]
    assert all(
        row["op_factor"] is None and row["node_factor"] is None for row in rows
    )
    assert csv_path.read_text().splitlines()[1] == "still,v08,0,0,1,1,1,,,True"
    table = capsys.readouterr().out.splitlines()
    assert table[1].split()[-3:] == ["-", "-", "True"]


def test_bench_zero_reps_exits_1(models_dir, capsys):
    assert main(["bench", str(models_dir), "--reps", "0"]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "--reps" in err


def test_stats_prints_structural_counters(producer, capsys):
    assert main(["stats", producer]) == 0
    stdout = capsys.readouterr().out
    lines = dict(line.split() for line in stdout.splitlines())
    assert lines["sigma_c"] == "5"
    assert lines["sigma_u"] == "2"
    assert lines["Ap"] == "2"
    assert lines["lp"] == "9"
    assert lines["ep"] == "10"
    assert lines["vn"] == "3"
    assert lines["vv"] == "21"


def test_oracle_counts(producer, capsys):
    assert main(["oracle", producer]) == 0
    stdout = capsys.readouterr().out
    lines = dict(
        line.rsplit(None, 1) for line in stdout.splitlines()
    )
    assert lines["universe"] == "3120"
    assert lines["safe"] == "1170"
    assert lines["uncontrolled_states"] == "482"
    assert lines["controlled_states"] == "249"


def test_oracle_cap_exits_1(producer, capsys):
    assert main(["oracle", producer, "--cap", "10"]) == 1
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_oracle_nonpositive_cap_exits_1(producer, capsys, cap):
    assert main(["oracle", producer, "--cap", cap]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "--cap" in err and "positive integer" in err


def test_readme_quick_start_report_is_current(models_dir, tmp_path, capsys):
    # The README shows the report of its quick-start command; every line
    # it shows but the elision and the wall time must be printed verbatim.
    readme = (models_dir.parent / "README.md").read_text()
    quick = readme.split("## Quick start", 1)[1]
    command, report = quick.split("```")[1], quick.split("```")[3]
    assert command.split() == ["sh", "synth", "run",
                               "models/producer_consumer.efa"]
    shown = [
        line for line in report.splitlines()[1:]
        if line and line != "..." and not line.startswith("wall_time_s")
    ]
    assert len(shown) > 10
    out = tmp_path / "producer_consumer.sup.efa"
    assert main(["run", str(models_dir / "producer_consumer.efa"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in shown if line not in printed] == []
