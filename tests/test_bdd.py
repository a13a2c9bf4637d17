"""Unit tests for the BDD manager.

Most checks compare the shared-node implementation against brute force over
explicit truth tables, so the suite stays independent of the structures it
verifies.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efasynth import bdd
from efasynth.bdd import BddError, BddManager


def fresh(num_pairs=4):
    mgr = BddManager()
    for i in range(num_pairs):
        mgr.add_pair()
    return mgr


def minterm(mgr, levels, index):
    f = mgr.true
    for j, level in enumerate(levels):
        bit = (index >> j) & 1
        f = f & (mgr.var(level) if bit else ~mgr.var(level))
    return f


def from_table(mgr, levels, mask):
    """Build the BDD whose truth table over ``levels`` is ``mask``."""
    f = mgr.false
    for index in range(1 << len(levels)):
        if (mask >> index) & 1:
            f = f | minterm(mgr, levels, index)
    return f


def assignments(levels):
    for index in range(1 << len(levels)):
        yield index, {l: (index >> j) & 1 for j, l in enumerate(levels)}


# ----------------------------------------------------------------------
# construction and canonicity


@given(mask=st.integers(min_value=0, max_value=(1 << 16) - 1))
@settings(max_examples=60, deadline=None)
def test_truth_table_round_trip(mask):
    mgr = fresh()
    levels = [0, 2, 4, 6]
    f = from_table(mgr, levels, mask)
    for index, env in assignments(levels):
        assert mgr.evaluate(f, env) == bool((mask >> index) & 1)
    assert mgr.sat_count(f, levels) == bin(mask).count("1")


@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=60, deadline=None)
def test_connectives_match_bitwise(a, b):
    mgr = fresh(3)
    levels = [0, 2, 4]
    fa, fb = from_table(mgr, levels, a), from_table(mgr, levels, b)
    full = (1 << 8) - 1
    cases = {
        "and": a & b,
        "or": a | b,
        "xor": a ^ b,
        "diff": a & ~b & full,
        "imp": (~a | b) & full,
        "biimp": ~(a ^ b) & full,
    }
    for op, want in cases.items():
        assert mgr.apply(op, fa, fb) == from_table(mgr, levels, want)
    assert ~fa == from_table(mgr, levels, ~a & full)


@pytest.mark.parametrize("op", ["and", "or", "xor", "diff", "imp", "biimp"])
def test_terminal_cases_are_not_counted(op):
    # With a terminal operand or equal operands the result is a constant,
    # an operand or its negation, and only a negation is an operation.
    mgr = fresh(1)
    x = mgr.var(0)
    for f in (mgr.false, mgr.true, x):
        for g in (mgr.false, mgr.true, x):
            before = mgr.op_counts()
            got = mgr.apply(op, f, g)
            moved = {
                name for name, n in mgr.op_counts().items() if n != before[name]
            }
            assert moved <= {"not"}
            for bit in (0, 1):
                env = {0: bit}
                a, b = mgr.evaluate(f, env), mgr.evaluate(g, env)
                want = {
                    "and": a and b, "or": a or b, "xor": a != b,
                    "diff": a and not b, "imp": not a or b, "biimp": a == b,
                }[op]
                assert mgr.evaluate(got, env) == want


@pytest.mark.parametrize("op", ["and", "or", "xor", "diff", "imp", "biimp"])
def test_terminal_answers_are_the_kernels_and_cost_nothing(op):
    # A terminal operand or equal operands are answered before the
    # operation boundary unless the answer negates an operand: the answer
    # is the kernel's, and no counter moves.
    mgr = fresh(2)
    x = mgr.register_root(mgr.var(0))
    y = mgr.var(0) & mgr.var(2)
    assert mgr.peak_nodes > mgr.live_nodes
    code = bdd._CONNECTIVES[op]
    operands = (mgr.false, mgr.true, x, y)
    for f in operands:
        for g in operands:
            if f.node > 1 and g.node > 1 and f != g:
                continue
            before = (mgr.op_counts(), mgr.live_nodes, mgr.peak_nodes,
                      mgr.allocated_nodes)
            got = mgr.apply(op, f, g)
            after = (mgr.op_counts(), mgr.live_nodes, mgr.peak_nodes,
                     mgr.allocated_nodes)
            assert got == mgr._run(mgr._apply, code, f.node, g.node)
            if got.node in (0, 1, f.node, g.node):
                assert after == before, (f, g)
    before = (mgr.op_counts(), mgr.peak_nodes, mgr.allocated_nodes)
    assert ~mgr.true == mgr.false and ~mgr.false == mgr.true
    assert (mgr.op_counts(), mgr.peak_nodes, mgr.allocated_nodes) == before


def test_a_negated_operand_still_counts_its_not():
    mgr = fresh(1)
    x = mgr.var(0)
    nx = x ^ mgr.true
    assert [mgr.evaluate(nx, {0: bit}) for bit in (0, 1)] == [True, False]
    assert mgr.apply("imp", x, mgr.false) == nx
    assert mgr.op_counts()["not"] == 1  # the second negation is a hit


def test_terminal_answers_still_check_their_operands():
    mgr = fresh(2)
    dropped = mgr.var(0) | mgr.var(2)
    mgr._collect()
    other = fresh(2)
    for op in ("and", "or", "xor", "diff", "imp", "biimp"):
        for t in (mgr.false, mgr.true):
            for f, g in ((dropped, t), (t, dropped)):
                with pytest.raises(BddError, match="freed"):
                    mgr.apply(op, f, g)
            for f, g in ((other.true, t), (t, other.false)):
                with pytest.raises(BddError, match="different manager"):
                    mgr.apply(op, f, g)
        with pytest.raises(BddError, match="freed"):
            mgr.apply(op, dropped, dropped)
    with pytest.raises(BddError, match="freed"):
        ~dropped
    with pytest.raises(BddError, match="different manager"):
        mgr.negate(other.true)


def test_canonicity_shares_nodes():
    mgr = fresh()
    f = (mgr.var(0) & mgr.var(2)) | (mgr.var(4) & mgr.var(6))
    g = (mgr.var(4) & mgr.var(6)) | (mgr.var(0) & mgr.var(2))
    assert f == g
    assert f.node == g.node


def test_node_counts_depend_on_order():
    # (a & b) | (c & d): grouped order gives 4 decision nodes, the
    # interleaved order a < c < b < d gives 6.
    mgr = fresh()
    a, b, c, d = mgr.var(0), mgr.var(2), mgr.var(4), mgr.var(6)
    assert mgr.size((a & b) | (c & d)) == 4
    a, c, b, d = mgr.var(0), mgr.var(2), mgr.var(4), mgr.var(6)
    assert mgr.size((a & b) | (c & d)) == 6


def test_ite_matches_composition():
    mgr = fresh(3)
    levels = [0, 2, 4]
    rng = random.Random(7)
    for _ in range(25):
        f, g, h = (
            from_table(mgr, levels, rng.randrange(1 << 8)) for _ in range(3)
        )
        assert mgr.ite(f, g, h) == (f & g) | (~f & h)


# ----------------------------------------------------------------------
# quantification, renaming, restrict


def test_exists_drops_levels():
    mgr = fresh(3)
    levels = [0, 2, 4]
    rng = random.Random(11)
    for _ in range(25):
        f = from_table(mgr, levels, rng.randrange(1 << 8))
        lvl = rng.choice(levels)
        manual = mgr.false
        for index, env in assignments(levels):
            env0, env1 = dict(env), dict(env)
            env0[lvl], env1[lvl] = 0, 1
            if mgr.evaluate(f, env0) or mgr.evaluate(f, env1):
                manual = manual | minterm(mgr, levels, index)
        got = mgr.exists(f, [lvl])
        # manual still mentions lvl freely; compare on the quotient.
        assert mgr.exists(manual, [lvl]) == got
        assert lvl not in mgr.support(got)
    assert mgr.exists(f, []) == f


def test_replace_shifts_levels():
    mgr = fresh(3)
    f = mgr.var(0) & ~mgr.var(2)
    g = mgr.replace(f, {0: 1, 2: 3})
    assert g == mgr.var(1) & ~mgr.var(3)
    assert mgr.replace(g, {1: 0, 3: 2}) == f


def test_replace_rejects_order_violation():
    mgr = fresh(3)
    f = mgr.var(0) & mgr.var(2)
    with pytest.raises(BddError):
        mgr.replace(f, {0: 3, 2: 1})


def test_a_rename_map_is_interned_once_in_any_form():
    mgr = fresh(3)
    f = mgr.var(0) & ~mgr.var(2)
    want = mgr.var(1) & ~mgr.var(3)
    for mapping in ({0: 1, 2: 3}, {0: 1, 2: 3}, {0: 1, 4: 4, 2: 3},
                    {2: 3, 0: 1}):
        assert mgr.replace(f, mapping) == want
    assert mgr._maps == [({0: 1, 2: 3}, 2)]
    assert set(mgr._map_ids.values()) == {0}


def test_a_rename_map_is_checked_on_each_support():
    # {0: 3} keeps the order of {0} and {0, 4}, not of {0, 2}
    mgr = fresh(3)
    up = {0: 3}
    assert mgr.replace(mgr.var(0), up) == mgr.var(3)
    f = mgr.var(0) & mgr.var(4)
    assert mgr.replace(f, up) == mgr.var(3) & mgr.var(4)
    for _ in range(2):
        with pytest.raises(BddError, match=r"order-preserving on support \[0, 2\]"):
            mgr.replace(mgr.var(0) & mgr.var(2), up)
    assert mgr.replace(f, dict(up)) == mgr.var(3) & mgr.var(4)


def test_an_out_of_range_level_raises_on_every_call():
    mgr = fresh(2)
    f = mgr.var(0)
    for _ in range(2):
        with pytest.raises(BddError, match="level 9 out of range"):
            mgr.replace(f, {0: 9})
        with pytest.raises(BddError, match="level 9 out of range"):
            mgr.replace(f, {9: 1})
        with pytest.raises(BddError, match="level 9 out of range"):
            mgr.exists(f, [9])
        with pytest.raises(BddError, match="level -1 out of range"):
            mgr.exists(f, (0, -1))
    assert not mgr._maps and not mgr._sets


def test_a_level_list_maps_to_its_interned_set():
    mgr = fresh(2)
    f = mgr.var(0) & mgr.var(2)
    want = mgr.var(0)
    for levels in ((level for level in [2]), [2], (2,), [2, 2]):
        assert mgr.exists(f, levels) == want
    assert mgr.exists(f, [0, 2]) == mgr.true
    assert [levels for levels, _, _ in mgr._sets] == [{2}, {0, 2}]


def test_identity_maps_and_empty_level_lists_return_f():
    mgr = fresh(2)
    f = mgr.var(0) & mgr.var(2)
    before = (mgr.op_counts(), mgr.allocated_nodes, mgr.peak_nodes)
    for _ in range(2):
        assert mgr.replace(f, {}) is f
        assert mgr.replace(f, {0: 0, 2: 2}) is f
        assert mgr.exists(f, []) is f
        assert mgr.exists(f, iter(())) is f
    assert (mgr.op_counts(), mgr.allocated_nodes, mgr.peak_nodes) == before
    assert not mgr._maps and not mgr._sets


def test_restrict_contracts():
    mgr = fresh(3)
    levels = [0, 2, 4]
    rng = random.Random(13)
    for _ in range(40):
        f = from_table(mgr, levels, rng.randrange(1 << 8))
        c = from_table(mgr, levels, rng.randrange(1, 1 << 8))
        r = mgr.restrict(f, c)
        assert (r & c) == (f & c)
    f = from_table(mgr, levels, 0b10110001)
    assert mgr.restrict(f, mgr.true) == f
    assert mgr.restrict(f, f) == mgr.true
    with pytest.raises(BddError):
        mgr.restrict(f, mgr.false)


def counter_state(mgr):
    return (mgr.op_counts(), mgr.allocated_nodes, mgr.live_nodes,
            mgr.peak_nodes)


def test_cofactors_read_exists_of_the_cube_off_the_diagram():
    mgr = fresh(4)
    levels = [0, 2, 4, 6]
    rng = random.Random(17)
    for _ in range(60):
        f = from_table(mgr, levels, rng.randrange(1 << 16))
        # a prefix of the order, its bits in any order
        fixed = levels[:rng.randint(0, 4)]
        rng.shuffle(fixed)
        before = counter_state(mgr)
        groups = mgr.cofactors(f, fixed)
        assert counter_state(mgr) == before
        assert all(codes == sorted(set(codes)) for codes in groups.values())
        assert [codes[0] for codes in groups.values()] == sorted(
            codes[0] for codes in groups.values())
        group_of = {c: g for g, codes in groups.items() for c in codes}
        for code in range(1 << len(fixed)):
            cube = mgr.true
            for i, l in enumerate(fixed):
                cube = cube & (mgr.var(l) if code >> i & 1 else ~mgr.var(l))
            want = mgr.exists(f & cube, fixed)
            if want.is_false:
                assert code not in group_of
            else:
                assert group_of[code] == want


def test_cofactors_refuse_a_fixed_level_below_a_free_one():
    mgr = fresh(3)
    f = mgr.var(0) & mgr.var(4)
    # level 4 lies below the free support level 0
    with pytest.raises(BddError):
        mgr.cofactors(f, [4])
    # a fixed level outside the support leads both ways
    assert mgr.cofactors(f, [0, 2]) == {mgr.var(4): [1, 3]}
    assert mgr.cofactors(f, [2, 0]) == {mgr.var(4): [2, 3]}
    assert mgr.cofactors(mgr.false, [0, 2]) == {}
    assert mgr.cofactors(mgr.true, [2]) == {mgr.true: [0, 1]}
    for bad in ([8], [0, 0]):
        with pytest.raises(BddError):
            mgr.cofactors(f, bad)


# ----------------------------------------------------------------------
# relational products


def random_relation(mgr, rng, assigned):
    """Random partial relation over 3 state pairs assigning ``assigned``."""
    levels = sorted([0, 2, 4] + [2 * i + 1 for i in assigned])
    mask = rng.randrange(1 << (1 << len(levels)))
    return from_table(mgr, levels, mask)


def naive_image(mgr, p, t, assigned):
    frame = mgr.true
    for i in range(3):
        if i not in assigned:
            frame = frame & mgr.apply("biimp", mgr.var(2 * i), mgr.var(2 * i + 1))
    full = p & t & frame
    shifted = mgr.exists(full, [0, 2, 4])
    return mgr.replace(shifted, {1: 0, 3: 2, 5: 4})


def naive_preimage(mgr, p, t, assigned, pairs=3):
    frame = mgr.true
    for i in range(pairs):
        if i not in assigned:
            frame = frame & mgr.apply("biimp", mgr.var(2 * i), mgr.var(2 * i + 1))
    p_next = mgr.replace(p, {2 * i: 2 * i + 1 for i in range(pairs)})
    return mgr.exists(t & frame & p_next, [2 * i + 1 for i in range(pairs)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_relnext_matches_naive_composition(seed):
    mgr = fresh(3)
    rng = random.Random(seed)
    for _ in range(12):
        assigned = set(rng.sample(range(3), rng.randrange(4)))
        t = random_relation(mgr, rng, assigned)
        p = from_table(mgr, [0, 2, 4], rng.randrange(1 << 8))
        r = from_table(mgr, [0, 2, 4], rng.randrange(1 << 8))
        want = naive_image(mgr, p, t, assigned)
        assert mgr.relnext(p, t) == want
        assert mgr.relnext(p, t, r) == (want & r)


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_relprev_matches_naive_composition(seed):
    mgr = fresh(3)
    rng = random.Random(seed)
    for _ in range(12):
        assigned = set(rng.sample(range(3), rng.randrange(4)))
        t = random_relation(mgr, rng, assigned)
        p = from_table(mgr, [0, 2, 4], rng.randrange(1 << 8))
        r = from_table(mgr, [0, 2, 4], rng.randrange(1 << 8))
        want = naive_preimage(mgr, p, t, assigned)
        assert mgr.relprev(p, t) == want
        assert mgr.relprev(p, t, r) == (want & r)


@pytest.mark.parametrize("seed", [8, 9, 10, 11])
def test_accumulating_products_match_a_separate_union(seed):
    mgr = fresh(3)
    rng = random.Random(seed)
    for _ in range(12):
        assigned = set(rng.sample(range(3), rng.randrange(4)))
        levels = [2 * i + 1 for i in sorted(assigned)]
        t = random_relation(mgr, rng, assigned)
        p, r, s = (
            from_table(mgr, [0, 2, 4], rng.randrange(1 << 8)) for _ in range(3)
        )
        # s & r is the case of a fixed point: the set grows inside r
        for a in (mgr.false, mgr.true, r, s, s & r):
            for product in (mgr.relnext, mgr.relprev):
                want = a | product(p, t, r, levels)
                assert product(p, t, r, levels, into=a) == want
                assert product(p, t, into=a) == a | product(p, t)


@pytest.mark.parametrize("seed", [12, 13, 14, 15])
def test_preimage_ends_where_the_relation_does(seed):
    # Relations over the two upper pairs and state sets over all five, so
    # most calls reach t == true with levels of p still below; some
    # assigned levels lie below the relation, where the product must go on.
    mgr = fresh(5)
    rng = random.Random(seed)
    states = [0, 2, 4, 6, 8]
    for _ in range(8):
        on = sorted(rng.sample(range(2), rng.randrange(3)))
        vacuous = sorted(rng.sample(range(2, 5), rng.randrange(3)))
        levels = sorted([0, 2] + [2 * i + 1 for i in on])
        t = from_table(mgr, levels, rng.randrange(1 << (1 << len(levels))))
        assigned = [2 * i + 1 for i in on + vacuous]
        p, r, s = (
            from_table(mgr, states, rng.randrange(1 << 32)) for _ in range(3)
        )
        want = naive_preimage(mgr, p, t, set(on + vacuous), pairs=5)
        # the argument shapes of a backward fixed-point step
        for a, c in ((p, r), (p & r, r), (s & r, r), (p, mgr.true)):
            got = mgr.relprev(p, t, c, assigned, into=a)
            assert got == a | (want & c)
        assert mgr.relprev(p, t, assigned=assigned) == want


def test_preimage_of_a_used_up_relation_costs_one_operation():
    # x0' := 1 into x0 & x2 & ... & x10: below pair 0 nothing is quantified
    mgr = fresh(6)
    rest = mgr.true
    for level in range(2, 12, 2):
        rest = rest & mgr.var(level)
    before = mgr.op_counts()["relprev"]
    assert mgr.relprev(mgr.var(0) & rest, mgr.var(1)) == rest
    assert mgr.op_counts()["relprev"] - before == 1


def test_plain_products_chain_the_two_products_of_a_pair():
    # x0' = x0 ^ x2 reaches either value of x0' from either value of x0,
    # so both products of pair 0 are non-empty; they yield states with
    # x2 = 0 and x2 = 1 respectively, so chaining the second onto the
    # first meets only false accumulators where a union would be needed
    for product, naive in (
        ("relnext", naive_image), ("relprev", naive_preimage)
    ):
        mgr = fresh(3)
        x0, x0n, x2, x2n, x4 = (mgr.var(l) for l in (0, 1, 2, 3, 4))
        t = mgr.apply("biimp", x0n, x0 ^ x2) & mgr.apply("biimp", x2n, x2)
        p = x0 ^ x4
        before = mgr.op_counts()["or"]
        got = getattr(mgr, product)(p, t)
        assert mgr.op_counts()["or"] == before
        assert got == naive(mgr, p, t, {0, 1})


def test_accumulating_into_false_counts_as_the_plain_product():
    def run(into):
        mgr = fresh(3)
        rng = random.Random(5)
        out = []
        for _ in range(10):
            assigned = set(rng.sample(range(3), rng.randrange(4)))
            levels = [2 * i + 1 for i in sorted(assigned)]
            t = random_relation(mgr, rng, assigned)
            p, r = (
                from_table(mgr, [0, 2, 4], rng.randrange(1 << 8))
                for _ in range(2)
            )
            kw = {"into": mgr.false} if into else {}
            out.append(mgr.relnext(p, t, r, levels, **kw).node)
            out.append(mgr.relprev(p, t, r, levels, **kw).node)
        return out, mgr.op_counts(), mgr.peak_nodes, mgr.allocated_nodes

    assert run(into=True) == run(into=False)


def test_accumulated_set_must_be_a_state_set_of_the_manager():
    mgr = fresh(2)
    t = mgr.apply("biimp", mgr.var(1), mgr.var(0))
    for product in (mgr.relnext, mgr.relprev):
        with pytest.raises(BddError):
            product(mgr.var(0), t, into=fresh(2).var(0))
        with pytest.raises(BddError):
            product(mgr.var(0), t, into=mgr.var(0) & mgr.var(3))


def test_state_set_check_finds_odd_levels_anywhere_below():
    mgr = fresh(5)
    x = mgr.var
    t = mgr.apply("biimp", x(1), x(0))
    valid = x(2) | x(4)
    assert mgr.relprev(valid, t, valid, into=valid) == valid
    # built inside a relation first, where odd levels are allowed
    inner = x(0) & (x(4) | x(9))
    assert mgr.relprev(x(0), inner) == x(0)
    bad = [
        (x(0) & (x(2) | x(9)), 9),  # in one branch only
        (inner, 9),
        (x(1) & valid, 1),  # above a node of a valid set
        (x(0) & (valid | x(7) & x(8)), 7),  # beside one
    ]
    for f, level in bad:
        message = f"next-state level {level};"
        for product in (mgr.relnext, mgr.relprev):
            with pytest.raises(BddError, match=message):
                product(f, t)
            with pytest.raises(BddError, match=message):
                product(valid, t, constrain=f)
            with pytest.raises(BddError, match=message):
                product(valid, t, into=f)
    # the nodes under a rejected set are still good state sets
    assert mgr.relprev(valid, t, valid, into=valid) == valid


def test_relnext_keeps_unassigned_source_constraints():
    # Guard reads x without assigning it: the image must not forget the
    # source value of x.
    mgr = fresh(2)
    x, y_next = mgr.var(0), mgr.var(3)
    t = x & y_next  # enabled when x, sets y := 1
    p = x & ~mgr.var(2)
    img = mgr.relnext(p, t)
    assert img == (x & mgr.var(2))


def test_relational_products_reject_primed_state_sets():
    mgr = fresh(2)
    bad = mgr.var(1)
    t = mgr.apply("biimp", mgr.var(1), mgr.var(0))
    with pytest.raises(BddError):
        mgr.relnext(bad, t)
    with pytest.raises(BddError):
        mgr.relprev(bad, t)


def test_relnext_of_true_relation_is_identity_frame():
    mgr = fresh(2)
    p = mgr.var(0) ^ mgr.var(2)
    assert mgr.relnext(p, mgr.true) == p
    assert mgr.relprev(p, mgr.true) == p


def test_explicit_assigned_levels_recover_vacuous_bits():
    # Two deterministic branches over variable x (pair 0/1): x=0 -> x'=1 and
    # x=0 -> x'=0.  Their union no longer mentions x' at all, so with the
    # default support-derived quantification the bit would read as framed.
    mgr = fresh(2)
    b1 = ~mgr.var(0) & mgr.var(1)
    b2 = ~mgr.var(0) & ~mgr.var(1)
    union = b1 | b2
    assert 1 not in mgr.support(union)
    p = ~mgr.var(0)
    want = mgr.relnext(p, b1) | mgr.relnext(p, b2)
    assert mgr.relnext(p, union, assigned=[1]) == want
    assert mgr.relnext(p, union) == p  # support-derived: reads as a frame
    back = mgr.relprev(mgr.var(0), b1) | mgr.relprev(mgr.var(0), b2)
    assert mgr.relprev(mgr.var(0), union, assigned=[1]) == back


def test_assigned_levels_must_cover_support():
    mgr = fresh(2)
    t = mgr.apply("biimp", mgr.var(1), mgr.var(0))
    with pytest.raises(BddError):
        mgr.relnext(mgr.var(0), t, assigned=[3])
    with pytest.raises(BddError):
        mgr.relprev(mgr.var(0), t, assigned=[2])  # even level rejected


# ----------------------------------------------------------------------
# saturation


def round_robin(mgr, start, relations, constrain):
    """The reference for ``saturate``: accumulating images in list order
    until a full sweep changes nothing."""
    acc = start & constrain
    while True:
        before = acc
        for t, assigned in relations:
            acc = mgr.relnext(acc, t, constrain, assigned, into=acc)
        if acc == before:
            return acc


def sparse_table(rng, rows, density):
    return sum(1 << row for row in range(rows) if rng.random() < density)


def window_relation(mgr, rng, pairs):
    """A partial relation over a window of at most three adjacent pairs,
    so relations start at different pairs.  It reads the window and
    assigns some of its bits; other bits of the window may be listed as
    assigned although the diagram leaves them vacuous."""
    lo = rng.randrange(pairs)
    window = range(lo, min(pairs, lo + rng.randint(1, 3)))
    on = sorted(rng.sample(window, rng.randint(0, len(window))))
    levels = sorted([2 * i for i in window] + [2 * i + 1 for i in on])
    t = from_table(mgr, levels, sparse_table(rng, 1 << len(levels), 0.2))
    vacuous = [i for i in window if i not in on and rng.random() < 0.3]
    if not vacuous and rng.random() < 0.5:
        return t, None  # the odd support is the assigned set
    return t, [2 * i + 1 for i in sorted(on + vacuous)]


@pytest.mark.parametrize("seed", range(6))
def test_saturation_matches_a_round_robin_fixed_point(seed):
    mgr = fresh(5)
    rng = random.Random(seed)
    states = [0, 2, 4, 6, 8]
    for _ in range(10):
        relations = [
            window_relation(mgr, rng, 5) for _ in range(rng.randint(1, 5))
        ]
        start = from_table(mgr, states, sparse_table(rng, 32, 0.1))
        constrain = from_table(mgr, states, sparse_table(rng, 32, 0.7))
        for c in (constrain, mgr.true):
            assert mgr.saturate(start, relations, c) == round_robin(
                mgr, start, relations, c
            )
        assert mgr.saturate(start, relations) == round_robin(
            mgr, start, relations, mgr.true
        )


def test_saturation_of_nothing():
    mgr = fresh(3)
    t = ~mgr.var(2) & mgr.var(3)  # x1 := true once x1 is false
    p, c = ~mgr.var(2) & mgr.var(0), ~mgr.var(4)
    assert mgr.saturate(mgr.false, [(t, None)], c) == mgr.false
    assert mgr.saturate(p, [], c) == p & c
    assert mgr.saturate(p, [(mgr.true, None), (mgr.false, [5])]) == p
    assert mgr.saturate(p, [(t, None)], c) == mgr.var(0) & c
    # x2 is listed as assigned: the image forgets its value
    assert mgr.saturate(p, [(t, [3, 5])]) == mgr.var(0)


def test_saturation_takes_state_sets_only():
    mgr = fresh(2)
    t = mgr.var(1)
    with pytest.raises(BddError, match="start set"):
        mgr.saturate(mgr.var(1), [(t, None)])
    with pytest.raises(BddError, match="constraint set"):
        mgr.saturate(mgr.var(0), [(t, None)], mgr.var(2) & mgr.var(3))
    with pytest.raises(BddError):
        mgr.saturate(mgr.var(0), [(t, [3])])  # t assigns level 1


def test_saturation_counts_are_deterministic():
    def run():
        mgr = fresh(5)
        rng = random.Random(7)
        relations = [window_relation(mgr, rng, 5) for _ in range(4)]
        start = from_table(mgr, [0, 2, 4, 6, 8], sparse_table(rng, 32, 0.1))
        before = mgr.op_counts()
        mgr.saturate(start, relations)
        after = mgr.op_counts()
        # a repeated call is answered from the computed cache
        total = mgr.op_total
        mgr.saturate(start, relations)
        assert mgr.op_total == total
        return {k: after[k] - before[k] for k in after}

    first = run()
    assert first == run()
    assert first["relnext"] > 0 and len(first) == 13


def test_relation_set_ids_are_bounded(monkeypatch):
    # Relation-set ids are packed into computed-cache keys like level-set
    # ids; from a false start a call builds no node.
    monkeypatch.setattr(bdd, "_KEY_LIMIT", 4)
    mgr = fresh(1)
    t = mgr.var(1)
    for k in range(1, 5):  # ids 0..3
        mgr.saturate(mgr.false, [(t, None)] * k)
    with pytest.raises(BddError, match="relation-set"):
        mgr.saturate(mgr.false, [(t, None)] * 5)


# Level sets are read back from bit masks as wide as the manager.  The
# shipped models stay below a few hundred levels; this manager has 3,072,
# and every operand sits on its last three pairs or spans the whole width.
WIDE_PAIRS = 1536


def truth_table(mgr, f, levels):
    return sum(
        mgr.evaluate(f, env) << index for index, env in assignments(levels)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_operations_on_the_last_pairs_of_a_wide_manager(seed):
    small, wide = fresh(3), fresh(WIDE_PAIRS)
    base = 2 * (WIDE_PAIRS - 3)
    assert 2 * WIDE_PAIRS >= 3000

    def build(levels, mask):
        """The same function on both managers, shifted by ``base`` on the
        wide one."""
        return [from_table(small, levels, mask),
                from_table(wide, [base + l for l in levels], mask)]

    def same(f, g):
        assert truth_table(small, f, list(range(6))) == truth_table(
            wide, g, [base + l for l in range(6)])

    rng = random.Random(seed)
    for _ in range(8):
        assigned = set(rng.sample(range(3), rng.randrange(4)))
        levels = sorted([0, 2, 4] + [2 * i + 1 for i in assigned])
        ts, tw = build(levels, rng.randrange(1 << (1 << len(levels))))
        ps, pw = build([0, 2, 4], rng.randrange(1 << 8))
        rs, rw = build([0, 2, 4], rng.randrange(1 << 8))

        assert wide.support(tw) == {base + l for l in small.support(ts)}
        gone = rng.choice(levels)
        same(small.exists(ts, [gone]), wide.exists(tw, [base + gone]))
        # one level at the top of the manager and one near its bottom
        same(small.exists(ps, [0]), wide.exists(pw, [0, base]))
        same(small.replace(ps, {0: 1, 4: 5}),
             wide.replace(pw, {base: base + 1, base + 4: base + 5}))
        count = small.sat_count(ps, [0, 2, 4])
        assert wide.sat_count(pw, [base, base + 2, base + 4]) == count
        every_state = range(0, 2 * WIDE_PAIRS, 2)
        assert wide.sat_count(pw, every_state) == count << (WIDE_PAIRS - 3)
        same(small.relnext(ps, ts), wide.relnext(pw, tw))
        same(small.relnext(ps, ts, rs), wide.relnext(pw, tw, rw))
        same(small.relprev(ps, ts), wide.relprev(pw, tw))
        same(small.relprev(ps, ts, rs), wide.relprev(pw, tw, rw))
    with pytest.raises(BddError, match=f"next-state level {base + 3}"):
        wide.relnext(wide.var(base + 3), wide.var(base + 1))
    with pytest.raises(BddError, match=rf"misses support levels \[{base + 2}\]"):
        wide.sat_count(wide.var(base) & wide.var(base + 2), [base])


# ----------------------------------------------------------------------
# counting, lifetime, determinism


def test_sat_count_scales_with_free_levels():
    mgr = fresh(3)
    f = mgr.var(0)
    assert mgr.sat_count(f, [0]) == 1
    assert mgr.sat_count(f, [0, 2, 4]) == 4
    assert mgr.sat_count(mgr.true, [0, 2, 4]) == 8
    assert mgr.sat_count(mgr.false, [0, 2, 4]) == 0
    with pytest.raises(BddError):
        mgr.sat_count(mgr.var(0) & mgr.var(2), [0])


def test_live_follows_roots():
    mgr = fresh()
    f = (mgr.var(0) & mgr.var(2)) | mgr.var(4)
    assert mgr.live_nodes == 0
    mgr.register_root(f)
    assert mgr.live_nodes == mgr.size(f)
    mgr.register_root(f)
    mgr.release_root(f)
    assert mgr.live_nodes == mgr.size(f)
    mgr.release_root(f)
    assert mgr.live_nodes == 0
    assert mgr.peak_nodes >= mgr.size(f)
    with pytest.raises(BddError):
        mgr.release_root(f)


def test_release_below_a_zero_count_underflows():
    # a child whose count was zeroed behind the manager's back cannot pass
    # the release on
    mgr = fresh()
    f = mgr.var(0) & mgr.var(2)
    mgr.register_root(f)
    child = mgr._high[f.node]
    assert mgr._ref[child] == 1
    mgr._ref[child] = 0
    with pytest.raises(BddError, match="reference count underflow"):
        mgr.release_root(f)


def test_shared_roots_release_every_count():
    mgr = fresh()
    shared = mgr.var(2) & mgr.var(4)
    f = mgr.var(0) & shared
    g = (~mgr.var(0) | mgr.var(6)) & shared
    mgr.register_root(f)
    mgr.register_root(g)
    assert mgr.live_nodes == len(set(mgr._nodes(f.node) + mgr._nodes(g.node)))
    assert mgr._ref[shared.node] == 2
    mgr.release_root(f)
    mgr.release_root(g)
    assert set(mgr._ref) == {0}
    assert mgr.live_nodes == 0


def test_peak_counts_temporaries():
    mgr = fresh(4)
    x0, x2 = mgr.var(0), mgr.var(2)
    assert (mgr.live_nodes, mgr.peak_nodes) == (0, 1)
    root = mgr.register_root(mgr.var(4) & mgr.var(6))
    assert (mgr.live_nodes, mgr.peak_nodes) == (2, 2)
    # the new node at level 0 and x2, which it holds, over the root
    f = mgr.ite(x0, x2, root)
    assert mgr.size(f) == mgr.size(root) + 2
    assert (mgr.live_nodes, mgr.peak_nodes) == (2, 2 + 2)
    # fewer temporaries leave the peak where it is
    mgr.var(0)
    assert mgr.peak_nodes == 4
    mgr.release_root(root)
    assert (mgr.live_nodes, mgr.peak_nodes) == (0, 4)


def test_a_step_that_adds_nothing_makes_no_probe(monkeypatch):
    # acc is the parity of 12 bits, two nodes on every level but the
    # first; t keeps the last bit at 1, so the preimage of acc is acc & x11
    # and every split of the accumulating step comes back unchanged
    mgr = fresh(12)
    acc = mgr.var(0)
    for level in range(2, 24, 2):
        acc = acc ^ mgr.var(level)
    mgr.register_root(acc)
    t = mgr.var(22) & mgr.var(23)
    nodes = set(mgr._nodes(acc.node))
    assert len(nodes) == 23
    built = []
    node = BddManager._node

    def recording_node(self, var, low, high):
        u = node(self, var, low, high)
        built.append(u)
        return u

    monkeypatch.setattr(BddManager, "_node", recording_node)
    assert mgr.relprev(acc, t, into=acc).node == acc.node
    assert not nodes & set(built)
    # an accumulator nothing holds still counts as the step's temporaries
    mgr.release_root(acc)
    mgr.register_root(mgr.var(0) & mgr.var(2) & mgr.var(4))
    assert mgr.live_nodes == 3 and mgr.peak_nodes < 3 + 23
    with mgr.fresh_cache():
        assert mgr.relprev(acc, t, into=acc) == acc
    assert mgr.peak_nodes == 3 + 23
    assert mgr.relprev(acc, t) == acc & mgr.var(22)


def reachable(mgr, nodes):
    """Number of decision nodes under ``nodes``, by a walk of its own."""
    seen = set()
    stack = list(nodes)
    while stack:
        v = stack.pop()
        if v > 1 and v not in seen:
            seen.add(v)
            stack += [mgr._low[v], mgr._high[v]]
    return len(seen)


# The level pairs of the manager random_step runs on.
STEP_PAIRS = 3


def random_step(mgr, rng, pool, roots, between=lambda: None):
    """One public operation on random operands from ``pool``; a negated
    literal takes two, ``var`` and then ``negate``, with ``between()``
    called after the first.

    When ``roots`` holds a non-constant state set, a relational product
    takes one as both its source set and ``into`` half the time, with a
    non-constant relation and a non-empty constraint: the shape of a
    fixed-point step, whose unchanged splits return the accumulator."""
    levels = 2 * STEP_PAIRS
    even = list(range(0, levels, 2))
    f, g, h = (rng.choice(pool) for _ in range(3))
    kind = rng.randrange(9)
    if kind == 0:
        literal = mgr.var(rng.randrange(levels))
        if rng.random() < 0.5:
            return literal
        between()
        return ~literal
    if kind == 1:
        op = rng.choice(["and", "or", "xor", "diff", "imp", "biimp"])
        return mgr.apply(op, f, g)
    if kind == 2:
        return mgr.negate(f)
    if kind == 3:
        return mgr.ite(f, g, h)
    if kind == 4:
        return mgr.exists(f, rng.sample(range(levels), 2))
    if kind == 5:
        if any(l % 2 for l in mgr.support(f)):
            return f
        return mgr.replace(f, {l: l + 1 for l in even})
    if kind == 6:
        return f if g.is_false else mgr.restrict(f, g)
    states = [p for p in pool if not any(l % 2 for l in mgr.support(p))]
    held = [p for p in roots if p in states and p.node > 1]
    if held and rng.random() < 0.5:
        acc = rng.choice(held)
        t = rng.choice([q for q in pool if q.node > 1])
        r = rng.choice([q for q in states if not q.is_false])
        product = mgr.relnext if kind == 7 else mgr.relprev
        return product(acc, t, constrain=r, into=acc)
    if kind == 7:
        return mgr.relnext(rng.choice(states), g)
    return mgr.relprev(rng.choice(states), g, constrain=rng.choice(states),
                       into=rng.choice(states))


@pytest.mark.parametrize("seed", range(12))
def test_live_and_peak_match_reference_walk(seed, monkeypatch):
    # live: the nodes under the registered roots once an operation is over.
    # peak: the high-water mark of the nodes under the roots and under the
    # nodes the operation in flight built, which only grow until it ends.
    rng = random.Random(seed)
    mgr = fresh(STEP_PAIRS)
    built = []
    node = BddManager._node

    def recording_node(self, var, low, high):
        u = node(self, var, low, high)
        if low != high:
            built.append(u)
        return u

    monkeypatch.setattr(BddManager, "_node", recording_node)
    pool = [mgr.true, mgr.false]
    roots = []
    peak = 0

    def check():
        nonlocal peak
        held = [r.node for r in roots]
        peak = max(peak, reachable(mgr, held + built))
        built.clear()
        assert mgr.live_nodes == reachable(mgr, held)
        assert mgr.peak_nodes == peak

    for _ in range(80):
        pool.append(random_step(mgr, rng, pool, roots, check))
        check()
        if rng.random() < 0.4:
            roots.append(mgr.register_root(rng.choice(pool)))
            check()
        if roots and rng.random() < 0.3:
            mgr.release_root(roots.pop(rng.randrange(len(roots))))
            check()
        if roots and rng.random() < 0.3:
            i = rng.randrange(len(roots))
            new = rng.choice(pool)
            # the new value is registered before the old one is released
            both = [r.node for r in roots] + [new.node]
            peak = max(peak, reachable(mgr, both))
            roots[i] = mgr.rebind(roots[i], new)
            check()
    while roots:
        mgr.release_root(roots.pop())
        check()
    assert mgr.live_nodes == 0


def test_rebind_counts_both_values_at_its_peak():
    # new shares no node with old; for a moment both are registered
    mgr = fresh(4)
    new = mgr.var(4) & mgr.var(6)
    old = mgr.register_root(mgr.var(0) & mgr.var(2))
    assert (mgr.live_nodes, mgr.peak_nodes) == (2, 2)
    assert mgr.rebind(old, new) == new
    assert (mgr.live_nodes, mgr.peak_nodes) == (2, 4)
    mgr.release_root(new)
    assert mgr.live_nodes == 0
    with pytest.raises(BddError, match="not a registered root"):
        mgr.release_root(old)


def test_an_operation_that_raises_still_releases_its_temporaries(
    monkeypatch,
):
    # The kernel builds three nodes and then fails; the boundary still
    # ends the operation, so the next one's peak counts only its own node.
    # The operands are decision nodes: a terminal one is answered before
    # the kernel runs.
    mgr = fresh(4)
    f, g = mgr.var(0), mgr.var(2)
    made = mgr.allocated_nodes

    def broken(self, code, u, v):
        self._node(0, 0, self._node(2, 0, self._node(4, 0, 1)))
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(BddManager, "_apply", broken)
    with pytest.raises(RuntimeError):
        mgr.apply("and", f, g)
    monkeypatch.undo()
    assert (mgr.allocated_nodes - made, mgr.peak_nodes) == (3, 3)
    mgr.var(6)
    assert (mgr.allocated_nodes - made, mgr.peak_nodes) == (4, 3)


# ----------------------------------------------------------------------
# collection


def cache_nodes(mgr, cache):
    """Every node id a computed cache names: results and node key fields."""
    out = set()
    for ctx, table in cache.items():
        fields = bdd._NODE_FIELDS[ctx & 15]
        for key, value in table.items():
            out.add(value)
            out.update(key >> 32 * i & 0xFFFFFFFF for i in range(fields))
    return out


def test_a_handle_to_a_freed_node_raises():
    mgr = fresh(4)
    kept = mgr.register_root(mgr.var(0) & mgr.var(2))
    dropped = mgr.var(4) | mgr.var(6)
    mgr._collect()
    freed = set(mgr._free)
    assert dropped.node in freed
    for use in (lambda: dropped & kept, lambda: mgr.support(dropped),
                lambda: mgr.register_root(dropped), lambda: ~dropped):
        with pytest.raises(BddError, match="freed"):
            use()
    # the same function again, in reused slots: equal to no stale handle
    again = mgr.var(4) | mgr.var(6)
    assert set(mgr._nodes(again.node)) <= freed
    assert again != dropped
    assert mgr.sat_count(again, [4, 6]) == 3
    # terminals and the live root are untouched
    assert (kept & mgr.true) == kept and mgr.false.is_false


def test_a_collection_frees_exactly_the_unreferenced_nodes():
    rng = random.Random(11)
    mgr = fresh(4)
    levels = [0, 2, 4, 6]
    masks = [rng.getrandbits(16) for _ in range(12)]
    fs = [from_table(mgr, levels, m) for m in masks]
    roots = [mgr.register_root(f) for f in fs[::2]]
    # a relation set over a dropped relation, purged with the cache
    mgr.saturate(fs[0], [(fs[1] & mgr.var(1), None)])
    mgr.exists(fs[3] | fs[5], [2])
    held = set()
    for r in roots:
        held.update(mgr._nodes(r.node))
    before = set(mgr._unique.values())
    dead = before - held
    # reference counts mark exactly the nodes the roots reach
    assert dead == {u for u in before if not mgr._ref[u]}
    assert dead and cache_nodes(mgr, mgr._cache) & dead
    counters = (mgr.live_nodes, mgr.peak_nodes, mgr.allocated_nodes)
    mgr._collect()
    assert set(mgr._unique.values()) == held
    assert mgr._free == sorted(dead, reverse=True)
    assert (mgr.live_nodes, mgr.peak_nodes, mgr.allocated_nodes) == counters
    assert (mgr.collections, mgr.freed_nodes) == (1, len(dead))
    assert not cache_nodes(mgr, mgr._cache) & dead
    assert not set(mgr._support_memo) & dead
    assert mgr._relsets == [None] and not mgr._relset_ids
    for f, m in zip(roots, masks[::2]):
        assert mgr.sat_count(f, levels) == bin(m).count("1")
        for index, env in assignments(levels):
            assert mgr.evaluate(f, env) == bool(m >> index & 1)
    # the dropped functions come back in the freed slots, lowest id first
    rebuilt = [from_table(mgr, levels, m) for m in masks[1::2]]
    new = set(mgr._unique.values()) - held
    assert len(new) < len(dead)
    assert new == set(sorted(dead)[:len(new)])
    assert mgr.allocated_nodes == counters[2] + len(new)
    for f, m in zip(rebuilt, masks[1::2]):
        for index, env in assignments(levels):
            assert mgr.evaluate(f, env) == bool(m >> index & 1)


def test_a_safe_point_collects_past_its_thresholds(monkeypatch):
    mgr = fresh(4)
    root = mgr.register_root(mgr.var(0) & mgr.var(2))
    for level in (4, 6):
        mgr.var(level)
    # x0 alone, x4 and x6 are dead
    assert (len(mgr._unique), mgr.live_nodes) == (5, 2)
    monkeypatch.setattr(bdd, "_COLLECT_FLOOR", 5)
    mgr.safe_point()  # 5 nodes are not more than the floor
    monkeypatch.setattr(bdd, "_COLLECT_FLOOR", 4)
    monkeypatch.setattr(bdd, "_COLLECT_RATIO", 3)
    mgr.safe_point()  # nor more than three times the live nodes
    assert mgr.collections == 0
    monkeypatch.setattr(bdd, "_COLLECT_RATIO", 2)
    mgr.safe_point()
    assert (mgr.collections, mgr.freed_nodes) == (1, 3)
    assert len(mgr._unique) == mgr.live_nodes == mgr.size(root)


def test_assigned_levels_are_interned_and_covered_on_every_call():
    mgr = fresh(2)
    p = mgr.var(0)
    mgr.relnext(p, mgr.var(1), assigned=[1])
    assert mgr._assigned_masks == {(1,): 0b10}
    # the interned mask still has to cover each relation's odd support
    with pytest.raises(BddError, match="outside the assigned set"):
        mgr.relnext(p, mgr.var(1) & mgr.var(3), assigned=(1,))
    with pytest.raises(BddError, match="not an odd level"):
        mgr.relprev(p, mgr.var(1), assigned=(1, 2))
    assert mgr._assigned_masks == {(1,): 0b10}


def test_the_manager_keeps_its_state_in_slots():
    # The weak reference is how a test sees a dropped manager freed.
    mgr = BddManager()
    assert not hasattr(mgr, "__dict__")
    assert weakref.ref(mgr)() is mgr


# Run in a subprocess, so that only one manager type warms the shared code
# of _node: a load that sees two types is not specialized for either.
_SLOT_LOADS = """
import dis, json
from efasynth import bdd
from efasynth.bdd import BddManager

class Wider(BddManager):
    __slots__ = tuple(f"_extra{i}" for i in range(8))

mgr = Wider()
for _ in range(8):
    mgr.add_pair()
bdd._COLLECT_RATIO = bdd._COLLECT_FLOOR = 0
for shift in range(3):  # each collection sends the next round to the free list
    acc = mgr.false
    for i in range(200):
        cube = mgr.true
        for level in range(0, 16, 2):
            lit = mgr.var(level)
            cube = cube & (lit if (i + shift) >> (level // 2) & 1 else ~lit)
        acc = acc | cube
    mgr.safe_point()
code = list(dis.get_instructions(BddManager._node, adaptive=True))
print(json.dumps([
    [b.opname, b.argval] for a, b in zip(code, code[1:])
    if a.opname == "LOAD_FAST" and a.argval == "self"
    and b.opname.startswith("LOAD_ATTR")
    or b.opname.startswith("STORE_ATTR")
]))
"""


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="reads CPython 3.11's specialized instructions",
)
def test_kernel_attribute_loads_stay_slot_loads_past_29_attributes():
    # Instance dicts lose CPython 3.11's fast attribute loads past 29
    # keys; slots keep them at any count, also with 8 more in a subclass.
    # The warm-up runs every path of _node, the free-list one included.
    src = pathlib.Path(bdd.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SLOT_LOADS], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    accesses = json.loads(proc.stdout)
    assert len(accesses) >= 14
    assert not [a for a in accesses if a[0] == "LOAD_ATTR_WITH_HINT"]
    assert [a for a in accesses if not a[0].endswith("_ATTR_SLOT")] == []


@pytest.mark.parametrize("op", ["not", "ite", "nand"])
def test_apply_takes_binary_connectives_only(op):
    mgr = fresh()
    with pytest.raises(BddError, match="not a binary connective"):
        mgr.apply(op, mgr.var(0), mgr.var(2))


def test_packed_key_fields_are_bounded(monkeypatch):
    # Each field of a packed key must stay below the bound; a smaller bound
    # shows the checks without allocating 2**32 of anything.
    monkeypatch.setattr(bdd, "_KEY_LIMIT", 8)
    mgr = fresh(4)
    with pytest.raises(BddError, match="levels"):
        mgr.add_pair()
    # Level sets and rename maps below the top level of f leave f as it is,
    # so these calls allocate no node.
    f = mgr.var(7)
    for level in range(7):
        mgr.exists(f, [level])
    mgr.exists(f, [0, 1])  # set id 7
    with pytest.raises(BddError, match="level-set"):
        mgr.exists(f, [0, 2])
    for level in range(1, 8):
        mgr.replace(f, {0: level})
    mgr.replace(f, {2: 3})  # map id 7
    with pytest.raises(BddError, match="rename-map"):
        mgr.replace(f, {2: 4})
    for level in range(5):  # node ids 3..7
        mgr.var(level)
    with pytest.raises(BddError, match="node"):
        mgr.var(5)
    assert mgr.allocated_nodes == 6
    assert mgr.live_nodes == 0


def test_op_counters_are_deterministic():
    def run(mgr):
        levels = [0, 2, 4]
        rng = random.Random(42)
        f = from_table(mgr, levels, rng.randrange(1 << 8))
        g = from_table(mgr, levels, rng.randrange(1 << 8))
        t = random_relation(mgr, rng, {0, 2})
        mgr.relnext(f, t, g)
        mgr.relprev(f, t)
        mgr.exists(f & g, [0])
        mgr.restrict(f, g | mgr.var(0))
        return mgr.op_counts(), mgr.op_total, mgr.peak_nodes, mgr.allocated_nodes

    first = run(fresh(3))
    second = run(fresh(3))
    assert first == second
    counts, total, _, _ = first
    assert total == sum(counts.values())
    assert total > 0


def test_cached_results_are_not_recounted():
    mgr = fresh(3)
    f = mgr.var(0) & mgr.var(2)
    g = mgr.var(2) | mgr.var(4)
    mgr.apply("and", f, g)
    snapshot = mgr.op_total
    mgr.apply("and", f, g)
    assert mgr.op_total == snapshot


# Pairs of operations on the same operand nodes whose computed-cache
# contexts differ: the level set, the rename map, the direction (with a
# guard, which assigns nothing, both directions quantify the same empty
# set), the relation set (the same relation, assigning another pair) or
# the connective.  Each names the counter of its second operation.
CONTEXT_PAIRS = {
    "exists": lambda m, f, g, t: ("exists", (
        lambda: m.exists(f, [0, 4]), lambda: m.exists(f, [2]))),
    "replace": lambda m, f, g, t: ("replace", (
        lambda: m.replace(f, {0: 1, 2: 3}), lambda: m.replace(f, {4: 5}))),
    "relnext/relprev": lambda m, f, g, t: ("relprev", (
        lambda: m.relnext(f, t, g, [1, 3]),
        lambda: m.relprev(f, t, g, [1, 3]))),
    "relnext/relprev guard": lambda m, f, g, t: ("relprev", (
        lambda: m.relnext(f, g, assigned=[]),
        lambda: m.relprev(f, g, assigned=[]))),
    "saturate": lambda m, f, g, t: ("relnext", (
        lambda: m.saturate(f, [(t, None)], g),
        lambda: m.saturate(f, [(t, [1, 3, 5])], g))),
    "and/or": lambda m, f, g, t: ("or", (
        lambda: m.apply("and", f, g), lambda: m.apply("or", f, g))),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pair", sorted(CONTEXT_PAIRS))
def test_contexts_never_share_entries(pair, seed):
    def operands():
        """The same operand nodes on a fresh manager, the counter of the
        second operation, and the pair of operations."""
        mgr, rng = fresh(3), random.Random(seed)
        f, g = (from_table(mgr, [0, 2, 4], rng.randrange(1, 255))
                for _ in range(2))
        t = random_relation(mgr, rng, {0, 1})
        return mgr, *CONTEXT_PAIRS[pair](mgr, f, g, t)

    def counted(mgr, op):
        before = mgr.op_counts()
        result = op()
        after = mgr.op_counts()
        return truth_table(mgr, result, range(6)), {
            k: after[k] - before[k] for k in after}

    alone, kind, (_, second) = operands()
    want = counted(alone, second)
    assert want[1][kind] > 0
    # building the operands fills the connective tables; a cold manager
    # runs the second operation on empty tables
    cold, _, (_, second) = operands()
    cold._cache.clear()
    want_cold = counted(cold, second)
    mgr, _, (first, second) = operands()
    first()
    # the sub-operations of the second may hit the connective tables the
    # first filled, but none of its own kind may hit
    result, counts = counted(mgr, second)
    assert result == want[0] and counts[kind] == want[1][kind]
    mgr._cache.clear()
    assert counted(mgr, second) == want_cold
    with mgr.fresh_cache():
        assert counted(mgr, second) == want_cold
    # the block leaves no entry behind
    assert counted(mgr, second) == want_cold


def test_operands_must_share_manager():
    a, b = fresh(), fresh()
    with pytest.raises(BddError):
        a.apply("and", a.true, b.true)


def test_noderef_hashes_by_node_and_compares_by_manager():
    a, b = fresh(), fresh()
    f, g, h = a.var(0), a.var(0), b.var(0)
    assert f == g and hash(f) == hash(g)
    assert h.node == f.node and h != f
    assert len({f, g, h}) == 2


def test_noderef_has_no_truth_value():
    mgr = fresh()
    with pytest.raises(BddError):
        bool(mgr.var(0))
