# Random walk through the supervised cat-and-mouse system.  The explicit
# oracle enumerates the state space; at each step we list the transitions
# the supervisor leaves enabled, note any controllable events it vetoes,
# pick a move at random, and check the two never share a room.
# Example usage: python demos/closed_loop_walk.py [seed] [steps]

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from efasynth.oracle import ExplicitOracle
from efasynth.parser import parse_file
from efasynth.transform import linearize, plantify


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    root = pathlib.Path(__file__).resolve().parent.parent
    model, diags = linearize(plantify(parse_file(root / "models" / "cat_mouse.efa")))
    assert not diags

    oracle = ExplicitOracle(model)
    names = {}  # pointer variable -> code -> location name
    for aut, codes in model.location_codes.items():
        names[f"{aut}_lp"] = {code: loc for loc, code in codes.items()}

    def show(state):
        values = oracle.values_of(state)
        return " ".join(f"{var.removesuffix('_lp')}={names[var][val]}"
                        for var, val in values.items())

    rng = random.Random(seed)
    state = next(iter(oracle.controlled_initial))
    print(f"start: {show(state)}")
    for step in range(steps):
        moves = []
        vetoed = set()
        for edge in oracle.edges:
            for dst in edge.allowed.get(state, ()):
                if not edge.controllable or dst in oracle.safe:
                    moves.append((edge.event, dst))
                elif edge.controllable:
                    vetoed.add(edge.event)
        if vetoed:
            print(f"       supervisor vetoes: {', '.join(sorted(vetoed))}")
        event, state = rng.choice(moves)
        values = oracle.values_of(state)
        cat, mouse = names["cat_lp"][values["cat_lp"]], names["mouse_lp"][values["mouse_lp"]]
        assert not (cat.startswith("r") and cat[1:] == mouse[1:]), "cat caught the mouse"
        print(f"{step + 1:>4}  {event:<12} -> {show(state)}")
    print("no shared room in", steps, "steps")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
