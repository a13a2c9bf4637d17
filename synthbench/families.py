"""Generated model families for the synthesis benchmark.

Each generator returns ``.efa`` source text and nothing else; the text is a
deterministic function of the size parameters and of ``tag``, a prefix put
in front of every global name (events, automata, variables).  A common
prefix keeps the relative sort order of all names, so a tagged model makes
the toolkit do exactly the same work as the untagged one: only the names in
the emitted text differ.
"""

from __future__ import annotations

__all__ = ["chain", "philosophers", "tank"]


def philosophers(n: int, tag: str = "") -> str:
    """Dining philosophers with ``n`` seats, laid out like the shipped
    ``models/dining_philosophers.efa``: fork i is the left fork of
    philosopher i and the right fork of philosopher i+1."""
    if n < 2:
        raise ValueError("philosophers needs at least two seats")
    seats = range(1, n + 1)
    events = ", ".join(
        f"{tag}{kind}_{i}"
        for i in seats
        for kind in ("take_left", "take_right", "release")
    )
    blocks = [f"controllable {events};"]
    for i in seats:
        blocks.append(
            f"plant {tag}phil_{i} {{\n"
            f"  location think:\n"
            f"    initial; marked;\n"
            f"    edge {tag}take_left_{i} goto has_left;\n"
            f"    edge {tag}take_right_{i} goto has_right;\n"
            f"  location has_left:\n"
            f"    edge {tag}take_right_{i} goto eat;\n"
            f"  location has_right:\n"
            f"    edge {tag}take_left_{i} goto eat;\n"
            f"  location eat:\n"
            f"    edge {tag}release_{i} goto think;\n"
            f"}}"
        )
    for i in seats:
        j = i % n + 1  # the philosopher to the left of fork i
        blocks.append(
            f"plant {tag}fork_{i} {{\n"
            f"  location free:\n"
            f"    initial; marked;\n"
            f"    edge {tag}take_left_{i} goto held;\n"
            f"    edge {tag}take_right_{j} goto held;\n"
            f"  location held:\n"
            f"    edge {tag}release_{i} goto free;\n"
            f"    edge {tag}release_{j} goto free;\n"
            f"}}"
        )
    return "\n\n".join(blocks) + "\n"


def chain(n: int, tag: str = "") -> str:
    """One plant with ``n`` booleans; ``e_i`` sets ``b_i`` once ``b_{i-1}``
    holds.  The single location is initial and marked, so every reachable
    state is kept: n + 1 states, none removed."""
    if n < 1:
        raise ValueError("chain needs at least one boolean")
    bits = range(1, n + 1)
    lines = [
        "controllable " + ", ".join(f"{tag}e_{i}" for i in bits) + ";",
        "",
        f"plant {tag}chain {{",
    ]
    lines += [f"  disc bool {tag}b_{i} = false;" for i in bits]
    lines += ["  location s:", "    initial; marked;"]
    lines.append(f"    edge {tag}e_1 do {tag}b_1 := true;")
    lines += [
        f"    edge {tag}e_{i} when {tag}b_{i - 1} do {tag}b_{i} := true;"
        for i in bits if i > 1
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def tank(k: int, cap: int, tag: str = "") -> str:
    """``k`` tanks holding ``int[0..cap]`` under one shared pump.

    ``fill`` (controllable) adds 3 and overflows at the top, a range error
    the supervisor must prevent; ``open`` (controllable) starts a drain and
    ``drain`` (uncontrollable) takes 1 or 2 depending on the input
    ``demand``.  Requirements: every level stays at or above cap/10, fills
    need low demand, and the ``pump`` automaton lets one tank drain at a
    time."""
    if k < 1 or cap < 10:
        raise ValueError("tank needs k >= 1 and cap >= 10")
    tanks = range(1, k + 1)
    floor = cap // 10
    blocks = [
        "controllable "
        + ", ".join(f"{tag}fill_{i}, {tag}open_{i}" for i in tanks) + ";\n"
        + "uncontrollable " + ", ".join(f"{tag}drain_{i}" for i in tanks) + ";\n"
        + f"input enum {{low, high}} {tag}demand;"
    ]
    for i in tanks:
        lvl = f"{tag}lvl_{i}"
        blocks.append(
            f"plant {tag}tank_{i} {{\n"
            f"  disc int[0..{cap}] {lvl} = {cap // 2};\n"
            f"  location closed:\n"
            f"    initial; marked;\n"
            f"    edge {tag}fill_{i} do {lvl} := {lvl} + 3;\n"
            f"    edge {tag}open_{i} goto draining;\n"
            f"  location draining:\n"
            f"    edge {tag}drain_{i} when {tag}demand = low"
            f" do {lvl} := {lvl} - 1 goto closed;\n"
            f"    edge {tag}drain_{i} when {tag}demand = high"
            f" do {lvl} := {lvl} - 2 goto closed;\n"
            f"}}"
        )
    pump = [f"requirement {tag}pump {{", "  location idle:", "    initial; marked;"]
    pump += [f"    edge {tag}open_{i} goto busy_{i};" for i in tanks]
    for i in tanks:
        pump += [f"  location busy_{i}:", f"    edge {tag}drain_{i} goto idle;"]
    pump.append("}")
    blocks.append("\n".join(pump))
    blocks.append("\n".join(
        f"requirement invariant {tag}lvl_{i} >= {floor};\n"
        f"requirement invariant {tag}fill_{i} needs {tag}demand = low;"
        for i in tanks
    ))
    return "\n\n".join(blocks) + "\n"
