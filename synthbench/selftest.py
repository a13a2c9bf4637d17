"""Self-test of the benchmark's model families.

Run from the root of a checkout:

    python3 synthbench/selftest.py

Checks that ``philosophers(5)`` is the shipped dining-philosophers model
(243 uncontrolled, 241 controlled states), that small members of every
family agree with the explicit oracle under both presets, and that the
seeded name prefix changes no counter.  Exits 1 on the first failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
from run import import_toolkit, tag_for  # noqa: E402

ORACLE_MEMBERS = (
    ("philosophers", (3,)),
    ("philosophers", (4,)),
    ("chain", (6,)),
    ("tank", (1, 10)),
    ("tank", (2, 12)),
)


def pipeline(text: str, preset: str):
    from efasynth.emit import emit
    from efasynth.parser import parse_spec, unparse
    from efasynth.synthesis import SynthesisConfig, synthesize
    from efasynth.transform import linearize, plantify

    plant = plantify(parse_spec(text))
    model, diags = linearize(plant)
    if diags:
        raise AssertionError(diags[0])
    result = synthesize(model, SynthesisConfig.preset(preset))
    return model, result, unparse(emit(plant, result))


def main() -> int:
    root = Path.cwd()
    import_toolkit(root)
    from efasynth.parser import parse_spec, unparse
    from checks import expected_counts, oracle_mismatches

    failures = []

    shipped = root / "models" / "dining_philosophers.efa"
    text = families.philosophers(5)
    if shipped.exists() and (
        unparse(parse_spec(shipped.read_text())) != unparse(parse_spec(text))
    ):
        failures.append("philosophers(5) differs from the shipped model")
    m = pipeline(text, "v40")[1].metrics
    if (m["uncontrolled_states"], m["controlled_states"]) != (243, 241):
        failures.append(
            f"philosophers(5): {m['uncontrolled_states']},"
            f" {m['controlled_states']} states, not 243, 241"
        )

    for family, args in ORACLE_MEMBERS:
        for preset in ("v08", "v40"):
            text = getattr(families, family)(*args)
            model, result, _ = pipeline(text, preset)
            label = f"{family}{args} {preset}"
            failures += [f"{label}: {e}"
                         for e in oracle_mismatches(result, model)]
            want = expected_counts(family, args)
            got = (result.metrics["uncontrolled_states"],
                   result.metrics["controlled_states"])
            if want is not None and got != want:
                failures.append(f"{label}: states {got}, expected {want}")

            # the seeded prefix must leave every counter and the emitted
            # text's length unchanged
            base = pipeline(getattr(families, family)(*args, tag=tag_for(1)),
                            preset)
            for seed in (2, 3):
                other = pipeline(
                    getattr(families, family)(*args, tag=tag_for(seed)), preset
                )
                for key in ("operations", "peak_nodes", "allocated_nodes",
                            "uncontrolled_states", "controlled_states"):
                    if other[1].metrics[key] != base[1].metrics[key]:
                        failures.append(f"{label}: {key} depends on the seed")
                if len(other[2]) != len(base[2]):
                    failures.append(f"{label}: text length depends on the seed")

    for line in failures:
        print(f"FAIL {line}")
    print(f"{'FAILED' if failures else 'ok'}:"
          f" {len(ORACLE_MEMBERS) * 2} oracle comparisons")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
