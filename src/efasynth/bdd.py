"""Reduced ordered binary decision diagrams with exact operation accounting.

The manager keeps every node in flat arrays, hash-conses through a unique
table, and memoizes results in unbounded computed tables, one per operation
context (see below).  All
counters (operation counts, live/peak node counts) are plain integers that
advance identically on every platform, which is what makes benchmark output
reproducible: an operation is counted exactly when a recursive invocation
survives the terminal-case shortcuts *and* misses the computed cache.

Variable levels come in adjacent pairs: an even level holds a current-state
bit and the next odd level holds its primed (next-state) partner.  The
relational products (:meth:`BddManager.relnext`, :meth:`BddManager.relprev`)
rely on this layout and quantify exactly the current-state variables whose
primed partner occurs in the transition relation; bits that are not assigned
by the relation keep their source value implicitly, so partial relations
need no explicit frame conjuncts.  Given a state set ``into``, they return
its union with the product in the same recursion, so a fixed-point step
``acc | (image(acc) & r)`` is one recursion with no separate union, after
the relational product of Burch, Clarke & Long, "Symbolic model checking
with partitioned transition relations" (VLSI 1991).  There is one
accumulation rule: the two products of a quantified pair chain, the first
one's result accumulating into the second, and a plain product is the
same recursion with an empty accumulator, so no two sub-products are ever
joined by a separate union.  A split whose two halves come back as the
accumulator's own children returns the accumulator with no probe of the
unique table: in a fixed-point step most of the set does not grow.  Each
product ends where its answer is known without a further split: the image
(``relnext``) when the relation is true, the preimage (``relprev``) when
the target set is true, or when the relation is true and no quantified
level is left at or below the target set's top level, where the target
set is its own preimage.  What a product's recursion reads but never
changes is fixed at the public boundary: each call of
``relnext``/``relprev`` builds one context (the operation, the level set,
its computed table, the interned set of quantified pairs and the set's top
level), and a saturation one per level set its firings quantify, and
passes it down, so a recursive step looks none of it up again.

A forward fixed point over many partial relations is computed by
saturation (:meth:`BddManager.saturate`), after Ciardo, Lüttgen &
Siminiceanu, "Saturation: an efficient iteration strategy for symbolic
state-space generation" (TACAS 2001).  Each relation starts at its top
pair, the first pair in the variable order that it reads or assigns, and
leaves every level above it alone, so it fires on the sub-diagrams at
that pair only, once they are saturated under the relations that start
below.  A round-robin of images would instead walk the whole reached set
above each relation and end with a sweep that only confirms nothing
changed.  Saturation steps take a computed table of their own per
relation set and count as ``relnext`` operations.

Node lifetime is explicit.  ``live`` counts the decision nodes reachable
from the registered roots, and ``peak`` is the high-water mark of those
nodes together with the temporaries of the public operation in flight: the
nodes reachable from a node it returned from ``_node``.  Registered roots
hold reference counts.  The temporaries of an operation are instead marked
with the operation's epoch: ``_node`` marks a node that is neither
referenced nor marked, together with its unmarked, unreferenced
descendants, and counts each in ``held``.  ``live`` does not change while
an operation runs and ``held`` only grows, so ``_end`` raises ``peak`` to
``live + held`` once, then clears ``held`` and advances the epoch, which
unmarks the temporaries all at once without a walk.

Nodes that no root reaches are freed only at a safe point
(:meth:`BddManager.safe_point`), which its caller places between
operations where it holds no unregistered handle it will use again, and
only once the unique table has outgrown the live nodes.  The collection is
deterministic: the dead nodes are those whose reference count is zero,
their slots are reused lowest id first, and every computed-table entry,
support-memo entry and relation set that names one is dropped, after Brace,
Rudell & Bryant (DAC 1990).  A handle carries its slot's generation, so
using a handle to a freed node raises :class:`BddError`.

The bookkeeping no counter sees is kept cheap and free of objects that
Python's cyclic collector tracks.  Keys of the unique table are packed into
one ``int`` of 32-bit fields (level and child node ids; ids are checked
against 2**32 as they are handed out).  The computed cache, after Brace,
Rudell & Bryant, "Efficient implementation of a BDD package" (DAC 1990), is
one dict of tables, one per operation context: the operation code in the
low four bits, above it the interned level-set, rename-map or relation-set
id the operation depends on (the connectives, ``not``, ``ite`` and
``restrict`` depend on none).  A table maps the packed operand node ids
alone to the result's, so a probe packs two to four ids rather than every
field of the call.  The tables hold nothing but ints, so the collector does
not track them, however many entries they gain.  The support
of a node is memoized as an ``int`` bitmask of levels, computed on demand;
whether a node's diagram holds an odd level is one byte per node, set as
the node is made, so checking that an operand is a state set costs no walk
and memoizes nothing.  The manager holds no reference to anything that
refers back to it, so a dropped manager is freed by reference counting
alone.

The walks that build nothing (support, size, satisfying-assignment count,
rendering) are one bottom-up fold, ``_fold``, on an explicit stack, and
``cofactor`` only follows edges through fixed levels: it builds and counts
nothing, so it refuses a fixed level after a free one in the support.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Iterable, Mapping

__all__ = ["BddError", "BddManager", "NodeRef"]

# Sentinel level for the two terminal nodes; larger than any real level.
_TERMINAL_LEVEL = 1 << 30

# Internal operation codes.  The public names double as stats keys.
_OP_NAMES = (
    "and", "or", "xor", "diff", "imp", "biimp",
    "not", "ite", "exists", "replace", "restrict", "relnext", "relprev",
)
_AND, _OR, _XOR, _DIFF, _IMP, _BIIMP, _NOT, _ITE, _EXISTS, _REPLACE, \
    _RESTRICT, _RELNEXT, _RELPREV = range(13)
# Computed-cache tag of saturation, whose steps count as relnext.
_SATURATE = 13
_COMMUTATIVE = frozenset((_AND, _OR, _XOR, _BIIMP))
# The binary connectives by public name.
_CONNECTIVES = {name: code for code, name in enumerate(_OP_NAMES[:_NOT])}

# Truth table of each binary connective: f(0,0), f(0,1), f(1,0), f(1,1),
# and f(u,u) for a decision node u, None when that is u itself.
_TRUTH = {
    _AND: (0, 0, 0, 1, None),
    _OR: (0, 1, 1, 1, None),
    _XOR: (0, 1, 1, 0, 0),
    _DIFF: (0, 0, 1, 0, 0),
    _IMP: (1, 1, 0, 1, 1),
    _BIIMP: (1, 0, 0, 1, 1),
}

# Every field of a packed key is below this bound; the op code takes the
# low four bits of a computed-cache context.
_KEY_LIMIT = 1 << 32

# Per op code, how many low 32-bit fields of a computed-table key are node
# ids; saturation's top field is a level.
_NODE_FIELDS = (2, 2, 2, 2, 2, 2, 1, 3, 1, 1, 2, 4, 4, 2)

# A safe point collects once the unique table holds more than this many
# times the live nodes, and more than the floor below.
_COLLECT_RATIO = 8
_COLLECT_FLOOR = 16_384


def _levels_of(mask: int) -> list[int]:
    """The levels set in ``mask``, in increasing order; the walk visits
    the set bits only, not every level below the highest."""
    levels = []
    while mask:
        low = mask & -mask
        levels.append(low.bit_length() - 1)
        mask ^= low
    return levels


def _level_set(mask: int) -> tuple[frozenset[int], int, frozenset[int]]:
    """The level set ``mask`` as stored: its levels, its highest level, and
    the even levels of the pairs a preimage over it quantifies."""
    levels = _levels_of(mask)
    return (frozenset(levels), mask.bit_length() - 1,
            frozenset(l - 1 for l in levels))


def _rename_map(items: tuple[tuple[int, int], ...]) -> tuple[dict, int]:
    return dict(items), items[-1][0]


def _purged(table: dict[int, int], dead: bytearray, fields: int) -> dict:
    """The entries of a computed table whose result and node fields, the
    low ``fields`` 32-bit fields of the key, are all alive."""
    low = 0xFFFFFFFF  # one field
    items = table.items()
    if fields == 1:
        return {k: v for k, v in items if not (dead[v] or dead[k])}
    if fields == 2:
        return {k: v for k, v in items
                if not (dead[v] or dead[k & low] or dead[k >> 32 & low])}
    if fields == 3:
        return {k: v for k, v in items
                if not (dead[v] or dead[k & low] or dead[k >> 32 & low]
                        or dead[k >> 64])}
    return {k: v for k, v in items
            if not (dead[v] or dead[k & low] or dead[k >> 32 & low]
                    or dead[k >> 64 & low] or dead[k >> 96])}


class BddError(Exception):
    """Raised on misuse of the manager (bad operands, unbalanced roots)."""


class NodeRef:
    """Handle to a BDD node.

    A ``NodeRef`` is a value object: equality means "same node in the same
    manager", which by canonicity is semantic equivalence.  It does not keep
    its node alive; use :meth:`BddManager.register_root` to keep a node's
    subgraph live between operations, and :meth:`BddManager.rebind` to move
    a registration to a new value.  A safe point
    (:meth:`BddManager.safe_point`) may free the nodes no root holds; the
    handle carries its node slot's generation, so a handle to a freed or
    reused slot raises :class:`BddError` instead of naming another function.
    """

    __slots__ = ("manager", "node", "gen")

    def __init__(self, manager: "BddManager", node: int, gen: int):
        self.manager = manager
        self.node = node
        self.gen = gen

    def __eq__(self, other):
        return (
            isinstance(other, NodeRef)
            and other.manager is self.manager
            and other.node == self.node
            and other.gen == self.gen
        )

    def __hash__(self):
        return self.node

    def __and__(self, other):
        return self.manager.apply("and", self, other)

    def __or__(self, other):
        return self.manager.apply("or", self, other)

    def __xor__(self, other):
        return self.manager.apply("xor", self, other)

    def __invert__(self):
        return self.manager.negate(self)

    def __bool__(self):
        raise BddError(
            "NodeRef has no truth value; compare against manager.true or "
            "manager.false, or use is_true/is_false"
        )

    @property
    def is_false(self) -> bool:
        return self.node == 0

    @property
    def is_true(self) -> bool:
        return self.node == 1

    def __repr__(self):
        return f"NodeRef({self.node})"


class BddManager:
    """Shared-node BDD store with deterministic metrics.

    Levels are allocated in current/next pairs via :meth:`add_pair`.  The
    manager never reorders, and frees dead nodes only at the safe points
    its caller marks (:meth:`safe_point`), by a rule that depends on the
    node counts alone, so the operation and node counters stay
    deterministic.

    Public operations do not nest: each runs its private recursion
    through ``_run``, whose ``_end`` releases every temporary the
    operation marked, also when the recursion raises.
    """

    def __init__(self):
        # CPython 3.11 specializes attribute access only on instances of at
        # most 29 attributes; past that every ``self._x`` in the kernels
        # slows down (about 8% of a benchmark round), so keep within it.
        # Node 0 is FALSE, node 1 is TRUE.
        self._var = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low = [0, 1]
        self._high = [0, 1]
        # Per node: reference count from registered roots and referenced
        # parents, and the epoch of the last operation that held it as a
        # temporary.
        self._ref = [0, 0]
        self._mark = [-1, -1]
        # Per node: the generation of its slot, advanced when a collection
        # frees it, so a handle made before then no longer matches.
        self._gen = [0, 0]
        self._unique: dict[int, int] = {}
        # Slots freed by collections, the lowest id last: reused first.
        self._free: list[int] = []
        # Computed tables by operation context, each keyed by operand ids,
        # and the ones fresh_cache set aside.
        self._cache: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self._saved_caches: list[defaultdict[int, dict[int, int]]] = []
        # Interned level sets (see _level_set) and rename maps referenced
        # from cache keys.
        self._set_ids: dict[int, int] = {}  # level mask -> id
        self._sets: list[tuple[frozenset[int], int, frozenset[int]]] = []
        self._map_ids: dict[tuple[tuple[int, int], ...], int] = {}
        self._maps: list[tuple[dict[int, int], int]] = []  # (map, max key)
        # Interned relation sets of saturate: per pair, the next pair a
        # relation starts at and the firings of the relations starting there.
        self._relset_ids: dict[tuple[tuple[int, int], ...], int] = {}
        self._relsets: list[tuple[list[int], list[tuple]] | None] = []
        # Checked masks of assigned odd levels, by the levels given.
        self._assigned_masks: dict[tuple[int, ...], int] = {}
        # mask of the odd levels allocated so far; its length is the
        # number of levels
        self._odd = 0
        self._labels: list[str] = []
        # Metrics.
        self._ops = [0] * len(_OP_NAMES)
        self._live = 0
        self._peak = 0
        self._collections = 0
        self._freed = 0
        self._roots: dict[int, int] = {}
        # Temporaries of the public operation in flight.
        self._epoch = 0
        self._held = 0
        self._support_memo: dict[int, int] = {0: 0, 1: 0}
        # Per node: 1 when an odd level occurs in its diagram.
        self._odd_below = bytearray(2)

    @property
    def false(self) -> NodeRef:
        return NodeRef(self, 0, 0)

    @property
    def true(self) -> NodeRef:
        return NodeRef(self, 1, 0)

    # ------------------------------------------------------------------
    # variables

    def add_pair(self, label: str = "") -> tuple[int, int]:
        """Allocate a current/next level pair; returns ``(even, odd)``."""
        c = self._odd.bit_length()
        if c + 2 > min(_KEY_LIMIT, _TERMINAL_LEVEL):
            raise BddError("too many variable levels")
        self._odd |= 1 << (c + 1)
        self._labels.append(label or f"b{c // 2}")
        return c, c + 1

    @property
    def num_vars(self) -> int:
        return self._odd.bit_length()

    def level_name(self, level: int) -> str:
        base = self._labels[level // 2]
        return base + ("'" if level & 1 else "")

    def var(self, level: int) -> NodeRef:
        """The function of a single variable at ``level``."""
        self._mask((level,))
        return self._run(self._node, level, 0, 1)

    def nvar(self, level: int) -> NodeRef:
        """Negated single variable, allocated without an apply call."""
        self._mask((level,))
        return self._run(self._node, level, 1, 0)

    def _mask(self, levels: Iterable[int]) -> int:
        """Bit mask of ``levels``, each checked to be an allocated level."""
        mask, n = 0, self._odd.bit_length()
        for l in levels:
            if not 0 <= l < n:
                raise BddError(f"level {l} out of range")
            mask |= 1 << l
        return mask

    # ------------------------------------------------------------------
    # node store

    def _node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var << 32 | low) << 32 | high
        u = self._unique.get(key)
        # Hold every node touched by the running operation as a temporary
        # so live/peak accounting sees intermediate results.
        ref, mark, epoch = self._ref, self._mark, self._epoch
        if u is None:
            odd = self._odd_below
            if self._free:
                u = self._free.pop()
                self._var[u] = var
                self._low[u] = low
                self._high[u] = high
                odd[u] = var & 1 | odd[low] | odd[high]
                mark[u] = epoch
            else:
                u = len(self._var)
                if u >= _KEY_LIMIT:
                    raise BddError("node table full")
                self._var.append(var)
                self._low.append(low)
                self._high.append(high)
                odd.append(var & 1 | odd[low] | odd[high])
                ref.append(0)
                mark.append(epoch)
                self._gen.append(0)
            self._unique[key] = u
        elif ref[u] or mark[u] == epoch:
            return u
        else:
            mark[u] = epoch
        held = 1
        # Children are mostly held already: built by this operation or live.
        if (low > 1 and not ref[low] and mark[low] != epoch
                or high > 1 and not ref[high] and mark[high] != epoch):
            held += self._hold_below([low, high])
        self._held += held
        return u

    def _hold_below(self, stack: list[int]) -> int:
        """Mark the nodes under ``stack`` that are neither referenced nor
        marked yet; returns how many were marked."""
        ref, mark, epoch = self._ref, self._mark, self._epoch
        lows, highs = self._low, self._high
        held = 0
        while stack:
            v = stack.pop()
            if v > 1 and not ref[v] and mark[v] != epoch:
                mark[v] = epoch
                held += 1
                stack.append(lows[v])
                stack.append(highs[v])
        return held

    def _ref_walk(self, u: int, delta: int) -> None:
        """Add ``delta`` (+1 or -1) to the reference count of ``u``; a node
        whose count leaves or reaches zero passes ``delta`` to its children
        and enters or leaves ``live``."""
        ref, lows, highs = self._ref, self._low, self._high
        changed = 0
        stack = [u]
        if delta > 0:
            while stack:
                v = stack.pop()
                if v > 1:
                    n = ref[v] + 1
                    ref[v] = n
                    if n == 1:
                        changed += 1
                        stack.append(lows[v])
                        stack.append(highs[v])
            self._live += changed
            if self._live > self._peak:
                self._peak = self._live
        else:
            while stack:
                v = stack.pop()
                if v > 1:
                    n = ref[v] - 1
                    if n < 0:
                        raise BddError("reference count underflow")
                    ref[v] = n
                    if n == 0:
                        changed += 1
                        stack.append(lows[v])
                        stack.append(highs[v])
            self._live -= changed

    def _run(self, kernel, *args) -> NodeRef:
        """The public operation ``kernel(*args)``, closed by :meth:`_end`."""
        try:
            u = kernel(*args)
            return NodeRef(self, u, self._gen[u])
        finally:
            self._end()

    def _end(self) -> None:
        """Release the temporaries of the operation that just ended.

        ``live`` does not change while an operation runs and its
        temporaries only grow, so ``live + held`` at the end is the
        operation's high-water mark."""
        if self._live + self._held > self._peak:
            self._peak = self._live + self._held
        self._held = 0
        self._epoch += 1

    def _unwrap(self, ref: NodeRef) -> int:
        if not isinstance(ref, NodeRef) or ref.manager is not self:
            raise BddError("operand belongs to a different manager")
        u = ref.node
        if ref.gen != self._gen[u]:
            raise BddError(f"handle to node {u}, which a collection freed")
        return u

    # ------------------------------------------------------------------
    # roots and metrics

    def register_root(self, ref: NodeRef) -> NodeRef:
        """Pin ``ref`` so its subgraph stays in the live count; returns it."""
        u = self._unwrap(ref)
        if u > 1:
            self._roots[u] = self._roots.get(u, 0) + 1
            self._ref_walk(u, 1)
        return ref

    def release_root(self, ref: NodeRef) -> None:
        u = self._unwrap(ref)
        if u <= 1:
            return
        count = self._roots.get(u, 0)
        if count == 0:
            raise BddError("release of a node that is not a registered root")
        if count == 1:
            del self._roots[u]
        else:
            self._roots[u] = count - 1
        self._ref_walk(u, -1)

    def rebind(self, old: NodeRef, new: NodeRef) -> NodeRef:
        """Move a root registration from ``old`` to ``new`` and return
        ``new``, registered first: the swap's peak counts both values."""
        self.register_root(new)
        self.release_root(old)
        return new

    @property
    def live_nodes(self) -> int:
        return self._live

    @property
    def peak_nodes(self) -> int:
        return self._peak

    @property
    def allocated_nodes(self) -> int:
        """Decision nodes created so far, reused slots included: every
        freed slot is either reused or still free."""
        return len(self._var) - 2 + self._freed - len(self._free)

    @property
    def collections(self) -> int:
        return self._collections

    @property
    def freed_nodes(self) -> int:
        return self._freed

    def op_counts(self) -> dict[str, int]:
        return {name: self._ops[i] for i, name in enumerate(_OP_NAMES)}

    @property
    def op_total(self) -> int:
        return sum(self._ops)

    @contextlib.contextmanager
    def fresh_cache(self):
        """Run the block on empty computed tables, then restore the ones
        they replaced, every context's table with them: the block's
        operation counts depend on its own work alone, and later operations
        see the hits they would have seen without it.  A collection in the
        block purges the set-aside tables too, so every entry they bring
        back names live nodes."""
        self._saved_caches.append(self._cache)
        self._cache = defaultdict(dict)
        try:
            yield
        finally:
            self._cache = self._saved_caches.pop()

    # ------------------------------------------------------------------
    # collection

    def safe_point(self) -> None:
        """Mark a point between operations where the caller holds no
        handle it has not registered and will use again; collect there
        once the unique table holds more than ``_COLLECT_RATIO`` times the
        live nodes and more than ``_COLLECT_FLOOR`` nodes."""
        if len(self._unique) > max(_COLLECT_RATIO * self._live,
                                   _COLLECT_FLOOR):
            self._collect()

    def _collect(self) -> None:
        """Free every node no registered root reaches.

        No operation is in flight at a safe point, so no node is a
        temporary, and the reference counts say exactly which nodes the
        roots reach: the dead ones are the unique-table entries whose count
        is zero, and no marking walk is needed.  Their slots advance their
        generation and join the free list in id order.  Then every
        structure that names a node id drops what names a dead one: the
        computed-table entries (by each op code's key layout, the tables
        ``fresh_cache`` set aside included), the support memo and the
        interned relation sets of :meth:`saturate`, with their tables."""
        ref, gen = self._ref, self._gen
        freed = [u for u in self._unique.values() if not ref[u]]
        self._unique = {k: u for k, u in self._unique.items() if ref[u]}
        dead = bytearray(len(ref))
        for u in freed:
            dead[u] = 1
            gen[u] += 1
        self._free = sorted(self._free + freed, reverse=True)
        self._collections += 1
        self._freed += len(freed)
        # a relation set names its relations' nodes, and their cofactors
        # are live while they are
        for key in [key for key in self._relset_ids
                    if any(dead[t] for t, _ in key)]:
            self._relsets[self._relset_ids.pop(key)] = None
        self._support_memo = {
            u: m for u, m in self._support_memo.items() if not dead[u]
        }
        for cache in (self._cache, *self._saved_caches):
            for ctx in list(cache):
                op, gid = ctx & 15, ctx >> 4
                if op == _SATURATE and self._relsets[gid] is None:
                    del cache[ctx]
                else:
                    cache[ctx] = _purged(cache[ctx], dead, _NODE_FIELDS[op])

    # ------------------------------------------------------------------
    # interning helpers

    def _intern(self, ids: dict, values: list, key, build, what: str) -> int:
        """Id of ``key`` in ``ids``; a new key gets the next id, checked
        against the key-field bound, and the value ``build(key)``."""
        i = ids.get(key)
        if i is None:
            i = len(values)
            if i >= _KEY_LIMIT:
                raise BddError(f"{what} table full")
            values.append(build(key))
            ids[key] = i
        return i

    def _intern_set(self, mask: int) -> int:
        return self._intern(
            self._set_ids, self._sets, mask, _level_set, "level-set"
        )

    def _relation_set(self, rels: tuple[tuple[int, int], ...]) -> tuple:
        """The stored form of the relation set ``rels``, pairs of a relation
        node and the mask of the odd levels it assigns.

        A relation starts at its top pair, the lowest even level of its
        support and assigned levels.  The set is stored per pair ``c`` (as
        ``c >> 1``): the next pair at or below ``c`` where a relation starts,
        and the firings of the relations starting at ``c``, ``(sid, i, j,
        t_ij)`` with ``t_ij`` the non-false cofactor of the relation at
        ``c = i, c+1 = j`` (``i == j`` when ``c+1`` is not assigned).  The
        identity and the empty relation fire nowhere."""
        by_pair: dict[int, list[tuple]] = {}
        for t, quant in rels:
            levels = self._support(t) | quant
            if t == 0 or not levels:
                continue
            c = ((levels & -levels).bit_length() - 1) & ~1
            sid = self._intern_set(quant >> 1)
            firings = by_pair.setdefault(c, [])
            for i, ti in enumerate(self._cof(t, c)):
                if quant >> (c + 1) & 1:
                    tij = self._cof(ti, c + 1)
                    firings += [(sid, i, j, tij[j]) for j in (0, 1) if tij[j]]
                elif ti:
                    firings.append((sid, i, i, ti))
        pairs = max(by_pair, default=-2) // 2 + 1
        fires = [tuple(by_pair.get(2 * k, ())) for k in range(pairs)]
        nxt = [_TERMINAL_LEVEL] * pairs
        top = _TERMINAL_LEVEL
        for k in reversed(range(pairs)):
            if fires[k]:
                top = 2 * k
            nxt[k] = top
        return nxt, fires

    # ------------------------------------------------------------------
    # boolean connectives

    def apply(self, op: str, f: NodeRef, g: NodeRef) -> NodeRef:
        code = _CONNECTIVES.get(op)
        if code is None:
            raise BddError(f"{op!r} is not a binary connective")
        return self._run(self._apply, code, self._unwrap(f), self._unwrap(g))

    def negate(self, f: NodeRef) -> NodeRef:
        return self._run(self._not, self._unwrap(f))

    def ite(self, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef:
        return self._run(
            self._ite, self._unwrap(f), self._unwrap(g), self._unwrap(h)
        )

    def _apply(self, code: int, u: int, v: int) -> int:
        # Terminal-case shortcuts; nothing here is counted.  With one
        # operand terminal the result is a constant, the other operand, or
        # its negation, as the connective's truth table row says.
        if u <= 1 or v <= 1:
            table = _TRUTH[code]
            if u <= 1:
                lo, hi, w = table[2 * u], table[2 * u + 1], v
            else:
                lo, hi, w = table[v], table[2 + v], u
            if lo == hi:
                return lo
            return w if hi else self._not(w)
        if u == v:
            same = _TRUTH[code][4]
            return u if same is None else same
        if code in _COMMUTATIVE and u > v:
            u, v = v, u
        key = u << 32 | v
        table = self._cache[code]
        cached = table.get(key)
        if cached is not None:
            return cached
        self._ops[code] += 1
        var_u, var_v = self._var[u], self._var[v]
        level = var_u if var_u < var_v else var_v
        if var_u == level:
            u0 = self._low[u]
            u1 = self._high[u]
        else:
            u0 = u1 = u
        if var_v == level:
            v0 = self._low[v]
            v1 = self._high[v]
        else:
            v0 = v1 = v
        res = self._node(
            level, self._apply(code, u0, v0), self._apply(code, u1, v1)
        )
        table[key] = res
        return res

    def _not(self, u: int) -> int:
        if u == 0:
            return 1
        if u == 1:
            return 0
        table = self._cache[_NOT]
        cached = table.get(u)
        if cached is not None:
            return cached
        self._ops[_NOT] += 1
        res = self._node(
            self._var[u], self._not(self._low[u]), self._not(self._high[u])
        )
        table[u] = res
        return res

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return self._not(f)
        key = (f << 32 | g) << 32 | h
        table = self._cache[_ITE]
        cached = table.get(key)
        if cached is not None:
            return cached
        self._ops[_ITE] += 1
        level = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cof(f, level)
        g0, g1 = self._cof(g, level)
        h0, h1 = self._cof(h, level)
        res = self._node(
            level, self._ite(f0, g0, h0), self._ite(f1, g1, h1)
        )
        table[key] = res
        return res

    def _cof(self, u: int, level: int) -> tuple[int, int]:
        if self._var[u] == level:
            return self._low[u], self._high[u]
        return u, u

    # ------------------------------------------------------------------
    # quantification, renaming, generalized cofactor

    def exists(self, f: NodeRef, levels: Iterable[int]) -> NodeRef:
        u = self._unwrap(f)
        mask = self._mask(levels)
        if not mask:
            return f
        return self._run(self._exists, u, self._intern_set(mask))

    def _exists(self, u: int, sid: int) -> int:
        levels, top, _ = self._sets[sid]
        if u <= 1 or self._var[u] > top:
            return u
        table = self._cache[sid << 4 | _EXISTS]
        cached = table.get(u)
        if cached is not None:
            return cached
        self._ops[_EXISTS] += 1
        a = self._exists(self._low[u], sid)
        b = self._exists(self._high[u], sid)
        if self._var[u] in levels:
            res = self._apply(_OR, a, b)
        else:
            res = self._node(self._var[u], a, b)
        table[u] = res
        return res

    def replace(self, f: NodeRef, mapping: Mapping[int, int]) -> NodeRef:
        """Rename variables by level; the map must preserve level order.

        The map extended with the identity must be strictly increasing on
        the support of ``f``; anything else would require reordering the
        diagram and is rejected.
        """
        u = self._unwrap(f)
        mapping = {k: v for k, v in mapping.items() if k != v}
        if not mapping:
            return f
        self._mask([*mapping, *mapping.values()])  # checks every level
        sup = _levels_of(self._support(u))
        imgs = [mapping.get(l, l) for l in sup]
        if any(b <= a for a, b in zip(imgs, imgs[1:])):
            raise BddError(
                f"rename map is not order-preserving on support {sup}"
            )
        mid = self._intern(
            self._map_ids, self._maps, tuple(sorted(mapping.items())),
            _rename_map, "rename-map",
        )
        return self._run(self._replace, u, mid)

    def _replace(self, u: int, mid: int) -> int:
        mapping, top = self._maps[mid]
        if u <= 1 or self._var[u] > top:
            return u
        table = self._cache[mid << 4 | _REPLACE]
        cached = table.get(u)
        if cached is not None:
            return cached
        self._ops[_REPLACE] += 1
        var = self._var[u]
        res = self._node(
            mapping.get(var, var),
            self._replace(self._low[u], mid),
            self._replace(self._high[u], mid),
        )
        table[u] = res
        return res

    def restrict(self, f: NodeRef, care: NodeRef) -> NodeRef:
        """Generalized-cofactor simplification of ``f`` against ``care``.

        Returns some ``g`` with ``g & care == f & care``, chosen by the
        sibling-substitution rule; outside the care set ``g`` is arbitrary.
        """
        u, c = self._unwrap(f), self._unwrap(care)
        if c == 0:
            raise BddError("restrict against an empty care set")
        return self._run(self._restrict, u, c)

    def _restrict(self, u: int, c: int) -> int:
        if c == 1 or u <= 1:
            return u
        key = u << 32 | c
        table = self._cache[_RESTRICT]
        cached = table.get(key)
        if cached is not None:
            return cached
        self._ops[_RESTRICT] += 1
        var_u, var_c = self._var[u], self._var[c]
        if var_c < var_u:
            c0, c1 = self._low[c], self._high[c]
            if c0 == 0:
                res = self._restrict(u, c1)
            elif c1 == 0:
                res = self._restrict(u, c0)
            else:
                res = self._restrict(u, self._apply(_OR, c0, c1))
        elif var_u < var_c:
            res = self._node(
                var_u,
                self._restrict(self._low[u], c),
                self._restrict(self._high[u], c),
            )
        else:
            c0, c1 = self._low[c], self._high[c]
            if c0 == 0:
                res = self._restrict(self._high[u], c1)
            elif c1 == 0:
                res = self._restrict(self._low[u], c0)
            else:
                res = self._node(
                    var_u,
                    self._restrict(self._low[u], c0),
                    self._restrict(self._high[u], c1),
                )
        table[key] = res
        return res

    # ------------------------------------------------------------------
    # relational products

    def _check_state_predicate(self, u: int, what: str) -> None:
        if self._odd_below[u]:
            odd = self._support(u) & self._odd
            raise BddError(
                f"{what} mentions next-state level {_levels_of(odd)[0]}; "
                "state predicates must use current-state (even) levels"
            )

    def relnext(
        self,
        p: NodeRef,
        t: NodeRef,
        constrain: NodeRef | None = None,
        assigned: Iterable[int] | None = None,
        into: NodeRef | None = None,
    ) -> NodeRef:
        """Image of state set ``p`` under relation ``t``.

        ``t`` may be partial: a current/next pair whose odd level does not
        occur in ``t`` is treated as unchanged.  The result is expressed
        over current-state levels, intersected with ``constrain`` (also over
        current-state levels) when given.

        ``assigned`` lists the odd levels the relation constrains, for
        relations where an assigned bit can be vacuous in the diagram — a
        union of deterministic branches may agree on a bit or cover both of
        its values, erasing it from the support even though the bit does
        not keep its source value.  It must cover the odd support of ``t``;
        by default the odd support itself is used.

        ``into`` is a state set the result is joined to: the call returns
        ``into | (image & constrain)`` in one product, with no separate
        union, and stops early wherever ``into`` is true or equals
        ``constrain``.
        """
        return self._relational(_RELNEXT, p, t, constrain, assigned, into)

    def relprev(
        self,
        p: NodeRef,
        t: NodeRef,
        constrain: NodeRef | None = None,
        assigned: Iterable[int] | None = None,
        into: NodeRef | None = None,
    ) -> NodeRef:
        """Preimage of state set ``p`` under relation ``t``.

        States with a ``t``-successor inside ``p``, intersected with
        ``constrain`` when given; all sets over current-state levels.
        ``assigned`` and ``into`` are as for :meth:`relnext`: with ``into``
        the result is ``into | (preimage & constrain)``.  The product ends
        where ``p`` is true, or where ``t`` is true and no quantified level
        lies at or below ``p``'s top level.
        """
        return self._relational(_RELPREV, p, t, constrain, assigned, into)

    def _relational(self, op, p, t, constrain, assigned, into) -> NodeRef:
        pn, tn = self._unwrap(p), self._unwrap(t)
        rn = 1 if constrain is None else self._unwrap(constrain)
        an = 0 if into is None else self._unwrap(into)
        self._check_state_predicate(
            pn, "source set" if op == _RELNEXT else "target set"
        )
        if rn != 1:
            self._check_state_predicate(rn, "constraint set")
        if an > 1:
            self._check_state_predicate(an, "accumulated set")
        quant = self._assigned_levels(tn, assigned)
        if op == _RELNEXT:
            # the image forgets the source values of the assigned bits
            quant >>= 1
        ctx = self._context(op, self._intern_set(quant))
        return self._run(self._relprod, ctx, pn, tn, rn, an)

    def _context(self, op: int, sid: int) -> tuple:
        """The context of one public product over level set ``sid``, fixed
        for its whole recursion: ``(op, sid, table, pairs, top)``, with
        ``table`` the computed table of ``op`` on ``sid``, ``pairs`` the
        even levels ``c`` of the pairs it quantifies (``c`` itself for the
        image, ``c + 1`` for the preimage) and ``top`` the set's highest
        level.  ``pairs`` come with the interned set; the table is looked
        up per call, as :meth:`fresh_cache` may have swapped it."""
        levels, top, preimage_pairs = self._sets[sid]
        pairs = levels if op == _RELNEXT else preimage_pairs
        return op, sid, self._cache[sid << 4 | op], pairs, top

    def _assigned_levels(
        self, tn: int, assigned: Iterable[int] | None
    ) -> int:
        """Mask of the odd levels ``tn`` assigns.  A given ``assigned`` is
        checked once and its mask interned, keyed by levels alone; whether
        it covers the odd support of ``tn`` is checked on every call."""
        odd_support = self._support(tn) & self._odd
        if assigned is None:
            return odd_support
        levels = tuple(assigned)
        odd = self._assigned_masks.get(levels)
        if odd is None:
            odd = self._mask(levels)
            if odd & ~self._odd:
                even = _levels_of(odd & ~self._odd)[0]
                raise BddError(f"assigned level {even} is not an odd level")
            self._assigned_masks[levels] = odd
        missing = odd_support & ~odd
        if missing:
            raise BddError(
                f"relation constrains odd levels {_levels_of(missing)} "
                "outside the assigned set"
            )
        return odd

    def _relprod(self, ctx: tuple, p: int, t: int, r: int, a: int) -> int:
        """``a`` joined with the relational product of state set ``p`` and
        relation ``t`` within ``r``, in the direction and over the level set
        of the context ``ctx`` (see :meth:`_context`).

        Both directions split on one current/next pair ``(c, c+1)`` at a
        time.  The image (``_RELNEXT``) ends when ``t`` is true and
        quantifies the source bit ``c`` of an assigned pair; its level set
        holds those even levels.  The preimage (``_RELPREV``) ends when
        ``p`` is true, or when ``t`` is true and every quantified level lies
        above ``p``'s top level, so ``p`` is its own preimage and the result
        is ``a | (p & r)``; it quantifies the target bit ``c+1``, and its
        level set holds those odd levels.  A true ``t`` with a quantified
        level still at or below ``p``'s top, an assigned bit the relation
        leaves vacuous, goes on splitting.  With ``t_ij`` the cofactor of
        ``t`` at ``c = i, c+1 = j``, the image result at ``c = j`` is the
        union over ``i`` of the product of ``p_i`` and ``t_ij``; the
        preimage is the same rule on the transposed cofactors ``t_ji``.

        The accumulator ``a`` is split with ``r``, and the two products of
        a quantified pair chain: the first product's result is the second's
        accumulator, so their union costs no separate pass.  A plain
        product is the case of a false ``a`` and takes the same path.  A
        call ends as soon as ``a`` is true or equals ``r``: nothing it
        could add lies outside ``r``.  When ``a`` decides ``c``, both
        halves come back as ``a``'s own children and ``a`` is held
        (referenced, or a temporary of this operation), the result is
        ``a`` itself, as ``_node`` would return it with nothing to mark.
        """
        if a == 1 or a == r or p == 0 or t == 0 or r == 0:
            return a
        op, sid, table, pairs, top = ctx
        var = self._var
        if t == 1 or p == 1:
            if op == _RELNEXT:
                if t == 1:
                    rest = self._exists(p, sid)
                    return self._apply(_OR, a, self._apply(_AND, rest, r))
            elif p == 1:
                rest = self._exists(t, sid)
                return self._apply(_OR, a, self._apply(_AND, rest, r))
            elif top < var[p]:
                # a preimage whose relation is used up: every quantified
                # level lies above p's top, so each state of p is its own
                # predecessor
                return a if p == a else self._apply(
                    _OR, a, self._apply(_AND, p, r)
                )
        key = ((a << 32 | p) << 32 | t) << 32 | r
        cached = table.get(key)
        if cached is not None:
            return cached
        self._ops[op] += 1
        low, high = self._low, self._high
        # The pair of the top level of the four operands; only t has odd
        # levels, so only t can be split on c + 1.
        vp, vt, vr, va = var[p], var[t], var[r], var[a]
        c = vp if vp < vt else vt
        if vr < c:
            c = vr
        if va < c:
            c = va
        c &= ~1
        if va == c:
            lo = low[a]
            hi = high[a]
        else:
            lo = hi = a
        if p == a:
            p0 = lo
            p1 = hi
        elif vp == c:
            p0 = low[p]
            p1 = high[p]
        else:
            p0 = p1 = p
        if vr == c:
            r0 = low[r]
            r1 = high[r]
        else:
            r0 = r1 = r
        if vt == c:
            t0 = low[t]
            t1 = high[t]
        else:
            t0 = t1 = t
        # A product whose p, t or r is false is its accumulator, so it is
        # not called.
        if c in pairs:
            if var[t0] == c + 1:
                t00 = low[t0]
                t01 = high[t0]
            else:
                t00 = t01 = t0
            if var[t1] == c + 1:
                t10 = low[t1]
                t11 = high[t1]
            else:
                t10 = t11 = t1
            if op != _RELNEXT:
                t01, t10 = t10, t01
            if r0:
                if p0 and t00:
                    lo = self._relprod(ctx, p0, t00, r0, lo)
                if p1 and t10:
                    lo = self._relprod(ctx, p1, t10, r0, lo)
            if r1:
                if p0 and t01:
                    hi = self._relprod(ctx, p0, t01, r1, hi)
                if p1 and t11:
                    hi = self._relprod(ctx, p1, t11, r1, hi)
        else:
            if p0 and t0 and r0:
                lo = self._relprod(ctx, p0, t0, r0, lo)
            if p1 and t1 and r1:
                hi = self._relprod(ctx, p1, t1, r1, hi)
        if (va == c and lo == low[a] and hi == high[a]
                and (self._ref[a] or self._mark[a] == self._epoch)):
            res = a
        else:
            res = self._node(c, lo, hi)
        table[key] = res
        return res

    def saturate(
        self,
        start: NodeRef,
        relations: Iterable[tuple[NodeRef, Iterable[int] | None]],
        constrain: NodeRef | None = None,
    ) -> NodeRef:
        """Least state set that contains ``start & constrain``, lies inside
        ``constrain`` and is closed under the image of every relation.

        ``relations`` holds ``(t, assigned)`` pairs, each read as
        :meth:`relnext` reads its relation and assigned levels (``assigned``
        may be ``None``).  The set is the fixed point of a round-robin of
        ``relnext(acc, t, constrain, assigned, into=acc)`` steps, computed
        by saturation; its steps count as ``relnext`` operations.
        """
        pn = self._unwrap(start)
        rn = 1 if constrain is None else self._unwrap(constrain)
        self._check_state_predicate(pn, "start set")
        self._check_state_predicate(rn, "constraint set")
        rels = []
        for t, assigned in relations:
            tn = self._unwrap(t)
            rels.append((tn, self._assigned_levels(tn, assigned)))
        gid = self._intern(
            self._relset_ids, self._relsets, tuple(rels), self._relation_set,
            "relation-set",
        )
        contexts = {
            sid: self._context(_RELNEXT, sid)
            for firings in self._relsets[gid][1] for sid, *_ in firings
        }
        return self._run(lambda: self._saturate(
            0, self._apply(_AND, pn, rn), rn, gid, contexts
        ))

    def _saturate(
        self, c: int, p: int, r: int, gid: int, contexts: dict[int, tuple]
    ) -> int:
        """The least set that contains ``p``, lies inside ``r`` (as ``p``
        does) and is closed under the relations of set ``gid`` that start
        at pair ``c`` or below; ``contexts`` holds the image context of
        each level set the firings quantify.

        Such relations neither read nor write a level above their top
        pair, so each acts on the sub-diagrams at its top pair alone, after
        Ciardo, Lüttgen & Siminiceanu, "Saturation: an efficient iteration
        strategy for symbolic state-space generation" (TACAS 2001).  ``c``
        first moves down to the first pair where ``p`` or ``r`` decides or
        a relation starts; below the last such start the result is ``p``.
        Otherwise both cofactors of ``p`` are saturated at
        ``c + 2``, and the relations starting at ``c`` fire from cofactor
        ``i`` into cofactor ``j``, each firing one accumulating image whose
        changed result is saturated again at ``c + 2``, until a pass changes
        nothing.  A firing whose source has not changed since it last fired
        is skipped: its image lies in the target already.  The result is
        also cached as its own saturation, so a changed set re-saturates
        only its new sub-diagrams.
        """
        if p == 0 or r == 0:
            return 0
        if p == r:
            return p
        nxt, fires = self._relsets[gid]
        top = nxt[c >> 1] if c >> 1 < len(nxt) else _TERMINAL_LEVEL
        if top == _TERMINAL_LEVEL:
            return p
        var = self._var
        c = min(top, var[p], var[r])
        key = (c << 32 | p) << 32 | r
        table = self._cache[gid << 4 | _SATURATE]
        cached = table.get(key)
        if cached is not None:
            return cached
        self._ops[_RELNEXT] += 1
        p0, p1 = self._cof(p, c)
        rs = self._cof(r, c)
        s = [self._saturate(c + 2, p0, rs[0], gid, contexts),
             self._saturate(c + 2, p1, rs[1], gid, contexts)]
        if c == top:
            firings = fires[c >> 1]
            last = [-1] * len(firings)
            changed = True
            while changed:
                changed = False
                for m, (sid, i, j, t) in enumerate(firings):
                    if s[i] == last[m]:
                        continue
                    last[m] = s[i]
                    new = self._relprod(contexts[sid], s[i], t, rs[j], s[j])
                    if new != s[j]:
                        s[j] = self._saturate(c + 2, new, rs[j], gid, contexts)
                        changed = True
        res = self._node(c, s[0], s[1])
        table[key] = res
        c = min(top, var[res], var[r])
        table[(c << 32 | res) << 32 | r] = res
        return res

    # ------------------------------------------------------------------
    # inspection

    def _fold(self, u: int, memo: dict, combine):
        """The value of ``u`` in a bottom-up fold of its diagram: ``memo``
        holds the values known so far (the terminals' at least) and gains
        the rest, each node's once, from ``combine(v, low, high)``.  No
        value may be ``None``, which reads as "not yet known"."""
        lows, highs = self._low, self._high
        stack = [u]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            lo, hi = memo.get(lows[v]), memo.get(highs[v])
            if lo is None or hi is None:
                if lo is None:
                    stack.append(lows[v])
                if hi is None:
                    stack.append(highs[v])
                continue
            stack.pop()
            memo[v] = combine(v, lo, hi)
        return memo[u]

    def _support(self, u: int) -> int:
        """Bitmask of the levels ``u`` depends on, memoized per node."""
        var = self._var
        return self._fold(
            u, self._support_memo, lambda v, lo, hi: lo | hi | 1 << var[v]
        )

    def _nodes(self, u: int) -> list[int]:
        """The decision nodes of ``u``, in increasing id order."""
        memo = {0: 0, 1: 0}
        self._fold(u, memo, lambda v, lo, hi: 0)
        return sorted(memo)[2:]

    def support(self, f: NodeRef) -> frozenset[int]:
        return frozenset(_levels_of(self._support(self._unwrap(f))))

    def top_level(self, f: NodeRef) -> int:
        """The level ``f`` decides first; a terminal's is past every level."""
        return self._var[self._unwrap(f)]

    def size(self, f: NodeRef) -> int:
        """Number of decision nodes in ``f`` (terminals excluded)."""
        return len(self._nodes(self._unwrap(f)))

    def evaluate(self, f: NodeRef, assignment: Mapping[int, int]) -> bool:
        """Evaluate ``f`` under a level -> {0,1} assignment."""
        u = self._unwrap(f)
        while u > 1:
            u = self._high[u] if assignment[self._var[u]] else self._low[u]
        return u == 1

    def cofactor(self, f: NodeRef, bits: Mapping[int, int]) -> NodeRef:
        """``f`` with each level of ``bits`` fixed to its value (0 or 1).

        The result is read off the diagram: the walk follows ``f``'s edges
        through the fixed levels and builds and counts nothing.  So every
        fixed level in the support of ``f`` must come before the support's
        other levels; :class:`BddError` is raised otherwise.
        """
        u = self._unwrap(f)
        fixed = self._mask(bits)
        sup = self._support(u)
        free = sup & ~fixed
        after = (free & -free).bit_length()  # one past the first free level
        if free and (sup & fixed) >> after:
            raise BddError(f"a fixed level comes after free level {after - 1}")
        while u > 1 and self._var[u] in bits:
            u = self._high[u] if bits[self._var[u]] else self._low[u]
        return NodeRef(self, u, self._gen[u])

    def sat_count(self, f: NodeRef, levels: Iterable[int]) -> int:
        """Number of satisfying assignments of ``f`` over ``levels``.

        ``levels`` must cover the support of ``f``; variables in ``levels``
        that ``f`` does not mention contribute a factor of two each.
        """
        u = self._unwrap(f)
        lvls = sorted(set(levels))
        rank = {l: i for i, l in enumerate(lvls)}
        missing = [l for l in _levels_of(self._support(u)) if l not in rank]
        if missing:
            raise BddError(f"sat_count domain misses support levels {missing}")
        n = len(lvls)
        var, lows, highs = self._var, self._low, self._high

        def rank_of(v):
            return n if v <= 1 else rank[var[v]]

        # Solutions per node over the variables ranked at or below its own.
        def combine(v, a, b):
            below = rank[var[v]] + 1
            return (a << (rank_of(lows[v]) - below)) + (
                b << (rank_of(highs[v]) - below)
            )

        return self._fold(u, {0: 0, 1: 1}, combine) << rank_of(u)

    def to_dot(self, f: NodeRef, name: str = "bdd") -> str:
        """Graphviz rendering of ``f`` (dashed = low, solid = high)."""
        u = self._unwrap(f)
        lines = [f"digraph {name} {{"]
        lines.append('  f [shape=plaintext, label="f"];')
        lines.append('  n0 [shape=box, label="0"];')
        lines.append('  n1 [shape=box, label="1"];')
        for v in self._nodes(u):
            lines.append(
                f'  n{v} [shape=circle, label="{self.level_name(self._var[v])}"];'
            )
            lines.append(f"  n{v} -> n{self._low[v]} [style=dashed];")
            lines.append(f"  n{v} -> n{self._high[v]};")
        lines.append(f"  f -> n{u};")
        lines.append("}")
        return "\n".join(lines)
