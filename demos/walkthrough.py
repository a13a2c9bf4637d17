# End-to-end tour of the synthesis pipeline on one model: parse, report
# model statistics, plantify + linearize, synthesize a supervisor, and
# print the controlled-system model that would be written to disk.
# Example usage: python demos/walkthrough.py [models/producer_consumer.efa]

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from efasynth.emit import emit
from efasynth.model import model_stats, validate
from efasynth.parser import parse_file, unparse
from efasynth.synthesis import SynthesisConfig, synthesize
from efasynth.transform import linearize, plantify


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else root / "models" / "producer_consumer.efa"

    spec = parse_file(path)
    diags = validate(spec)
    if diags:
        for d in diags:
            print(d)
        return 1

    print(f"== {path.name} ==")
    stats = model_stats(spec)
    print(f"plants: {stats.Ap}  requirements: {stats.Ar}"
          f"  locations: {stats.lp + stats.lr}  edges: {stats.ep + stats.er}")
    print(f"events: {stats.sigma_c} controllable, {stats.sigma_u} uncontrollable")

    plant = plantify(spec)
    model, diags = linearize(plant)
    assert not diags
    print(f"\nlinearized: {len(model.variables)} variables,"
          f" {len(model.edges)} self-loop edges")

    result = synthesize(model, SynthesisConfig.preset("v40"))
    m = result.metrics
    print(f"\nsynthesis (v40): {m['operations']} BDD operations,"
          f" peak {m['peak_nodes']} nodes")
    print(f"states: {m['uncontrolled_states']} uncontrolled"
          f" -> {m['controlled_states']} controlled")
    if not result.nonempty:
        print("empty supervisor")
        return 2

    controlled = emit(plant, result)
    print("\n-- controlled system model --")
    print(unparse(controlled))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
