"""Network-wide binary tree over rule headers.

Every rule header (forwarding, ACL, transform, or plain boundary marker)
terminates a root-to-node path, and the trie stores those paths only. The
header classes do not overlap: a rule header ending at a leaf is an
*atomic* class, one ending at an interior node is a *supernet*, and the
*induced* (iatomic) classes fill the rest of each supernet's range. An
induced class is the missing child of a node at or below a rule node; it is
never stored, and `compute_affected`, the one walk that lists classes,
emits it where it meets the gap (`leaf_entries` reads that walk). An update
therefore adds or prunes one root path and nothing else, and
`compute_affected` reports the classes whose behavior an update (or a batch
of them) may have changed, each with the rule-bearing nodes its
longest-prefix winners come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from .errors import NotFound, PrefixTooLong
from .prefixes import ROOT, Prefix


class Label(IntEnum):
    NONE = 0
    SUPERNET = 1
    ATOMIC = 2
    IATOMIC = 3


# The change log of a node whose owner map has had no write yet (or none
# since it was replaced wholesale): shared, empty and never appended to.
_NO_LOG: tuple = ()

# The rule maps every node starts with: shared, so a node allocates no map
# until it gets a rule. Never edited: an owner write copies a map whose log
# is `_NO_LOG` first, and ACL and rewrite writes replace their map.
_EMPTY: dict = {}

# A node's log starts over once it holds this many entries more than its
# owner map has owners, so a restart's copy costs O(1) per write amortised.
LOG_SLACK = 16


class TrieNode:
    """A node on the path to some rule header; a leaf always carries a rule
    (the root of an empty trie aside)."""

    __slots__ = ("zero", "one", "owners", "log", "acl", "xform", "marker",
                 "value", "depth", "_prefix", "_gap")

    def __init__(self, value: int, depth: int):
        self.zero: TrieNode | None = None
        self.one: TrieNode | None = None
        # the owner map is edited in place (see `_write_owner`); `log` keeps
        # each write's router and the port it had before, so an AffectedSets
        # chain that holds the map still reads it as it was. The ACL and
        # rewrite maps are replaced, never edited, so a held one stays a
        # snapshot by itself.
        self.owners: dict[str, int] = _EMPTY    # router -> port (one action per router)
        self.log: list | tuple = _NO_LOG        # router, port before, router, ...
        self.acl: dict[str, bool] = _EMPTY      # router -> permit
        self.xform: dict[str, Prefix] = _EMPTY  # router -> rewrite target
        self.marker = False
        self.value = value                      # path bits as an integer
        self.depth = depth
        self._prefix: Prefix | None = None
        self._gap: Prefix | None = None

    @property
    def is_leaf(self) -> bool:
        return self.zero is None and self.one is None

    @property
    def is_rule(self) -> bool:
        return bool(self.owners or self.acl or self.xform or self.marker)

    @property
    def label(self) -> Label:
        """ATOMIC for a rule leaf, SUPERNET for an interior rule node, NONE
        otherwise. No node is IATOMIC: induced classes are not stored."""
        if not self.is_rule:
            return Label.NONE
        return Label.ATOMIC if self.is_leaf else Label.SUPERNET

    def prefix(self) -> Prefix:
        """The node's prefix, built on first use and kept (a node never
        moves), so affected sets reuse one `Prefix` per class."""
        if self._prefix is None:
            self._prefix = Prefix(self.value, self.depth)
        return self._prefix

    def gap(self) -> Prefix:
        """The prefix of a one-child node's missing child (an induced class
        when the node is covered), kept like `prefix()` while it is missing."""
        bit = int(self.zero is not None)
        gap = self._gap
        if gap is None or gap.value & 1 != bit:
            gap = self._gap = Prefix(self.value << 1 | bit, self.depth + 1)
        return gap


def _write_owner(node: TrieNode, router: str, port: int | None) -> None:
    """Set `router`'s port at `node` in place (remove it when `port` is
    None), logging the port it had first.

    A node without a log of its own, or whose log is full, first takes a
    fresh copy of its map and an empty log: chains captured so far keep
    the old pair, which no write touches again. The log entry goes in
    before the map changes, so a concurrent `chain_port` never sees the
    edit without it.
    """
    owners, log = node.owners, node.log
    if log is _NO_LOG or len(log) >= 2 * (len(owners) + LOG_SLACK):
        node.owners = owners = owners.copy()
        node.log = log = []
    log += (router, owners.get(router))
    if port is None:
        del owners[router]
    else:
        owners[router] = port


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    created_nodes: int
    # the insert made a class that was not there: a leaf other than the
    # one filling exactly an induced class
    new_leaf: bool
    # False when no class boundary moved: an insert that made no new leaf
    # and turned no uncovered interior node into a rule, or a delete whose
    # node stays a rule
    shape_changed: bool


# The outcomes of updates that make no node, shared: outcomes are frozen.
_KEPT = UpdateOutcome(0, False, False)
_MOVED = UpdateOutcome(0, False, True)


def _filled(cls, fields: dict):
    """An instance of the frozen dataclass `cls` with `fields`, every one
    of its fields, as its ``__dict__``: one store in place of the
    generated ``__init__``'s ``object.__setattr__`` per field."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


# A rule-bearing trie node as a class's chain records it:
#   (owners, log, mark, acl, xform, lo)
# `owners` and `log` are the node's owner map and change log and `mark` the
# log's length at capture; read a router's port through `chain_port`, which
# undoes the writes logged since. `acl` and `xform` are the node's ACL and
# rewrite maps as they were at capture, and `lo` the low end of the node's
# header range.
ChainEntry = tuple[dict[str, int], list, int, dict[str, bool], dict[str, Prefix], int]


def _entry(node: TrieNode, width: int) -> ChainEntry:
    """Rule-bearing `node`'s chain entry, captured now."""
    log = node.log
    return (node.owners, log, len(log), node.acl, node.xform,
            node.value << (width - node.depth))


def chain_port(entry: ChainEntry, router: str) -> int | None:
    """`router`'s port at the entry's node when the chain was captured, or
    None if it had no rule there.

    Reads the map before the log: a write logs the old port before it
    edits the map, so a write racing this read shows up in one or the
    other with the same answer.
    """
    owners, log, mark = entry[0], entry[1], entry[2]
    port = owners.get(router)
    if len(log) > mark:
        try:
            i = log.index(router, mark)     # routers sit at even positions, ports are no str
        except ValueError:
            return port
        return log[i + 1]
    return port


def chain_owners(entry: ChainEntry) -> dict[str, int]:
    """The entry's whole owner map when the chain was captured (a new dict)."""
    owners, log, mark = entry[0], entry[1], entry[2]
    snap = owners.copy()
    for i in range(len(log) - 2, mark - 1, -2):     # newest first: the oldest write wins
        router, before = log[i], log[i + 1]
        if before is None:
            snap.pop(router, None)
        else:
            snap[router] = before
    return snap


@dataclass(frozen=True)
class AffectedSets:
    """Classes whose behavior a rule update may change.

    Coordinate j of every session vector is class ``classes[j]``; classes
    are ordered by range start (in-order leaf position).
    ``chains[j]`` lists the rule-bearing nodes on class j's root path,
    root first, as `ChainEntry` records; classes under the same nodes share
    one tuple. A router's longest-prefix winner for class j is its entry in
    the deepest chain node that names it. The entries hold the nodes' rule
    maps, and the owner maps' change logs, as of the computation, so
    sessions resolve (router, class) pairs on demand for the network as it
    was then, however the rules change afterwards.
    """

    classes: tuple[Prefix, ...]
    class_ranges: tuple[tuple[int, int], ...]
    width: int
    chains: tuple[tuple[ChainEntry, ...], ...] = field(repr=False)
    has_transforms: bool = False

    @property
    def m(self) -> int:
        return len(self.classes)

    @cached_property
    def p_affected(self) -> frozenset[tuple[str, int]]:
        """Every (router, port) that wins longest-prefix match on some class."""
        out: set[tuple[str, int]] = set()
        seen: set[int] = set()
        for chain in self.chains:
            if id(chain) in seen:
                continue
            seen.add(id(chain))
            winners: dict[str, int] = {}
            for entry in chain:
                winners.update(chain_owners(entry))
            out.update(winners.items())
        return frozenset(out)


class HeaderTrie:
    """Binary tree over all rule headers for a fixed header width."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("header width must be >= 1")
        self.width = width
        self.root = TrieNode(0, 0)
        self.last_affected_visits = 0

    # ------------------------------------------------------------------
    # classes

    def nodes(self):
        """Every node, in pre-order (a node before its zero, then one, subtree)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.one is not None:
                stack.append(node.one)
            if node.zero is not None:
                stack.append(node.zero)

    def leaf_entries(self) -> list[tuple[Prefix, Label, int]]:
        """All classes as (prefix, label, coordinate), in range-start order,
        as `compute_affected` lists them: a class with a node of its own is
        a rule leaf, ATOMIC; one without is IATOMIC (an empty trie has none)."""
        if self.root.is_leaf and not self.root.is_rule:
            return []
        find = self._find
        return [(p, Label.IATOMIC if find(p) is None else Label.ATOMIC, i)
                for i, p in enumerate(self.compute_affected(ROOT).classes)]

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_entries())

    @property
    def iatomic_count(self) -> int:
        return sum(label == Label.IATOMIC for _, label, _ in self.leaf_entries())

    # ------------------------------------------------------------------
    # structural helpers

    def _new_child(self, parent: TrieNode, bit: int) -> TrieNode:
        child = TrieNode((parent.value << 1) | bit, parent.depth + 1)
        if bit:
            parent.one = child
        else:
            parent.zero = child
        return child

    def _unlink(self, parent: TrieNode, child: TrieNode) -> None:
        if parent.zero is child:
            parent.zero = None
        else:
            parent.one = None

    def _walk(self, prefix: Prefix) -> list[TrieNode] | None:
        node = self.root
        path = [node]
        value, length = prefix.value, prefix.length
        for shift in range(length - 1, -1, -1):
            node = node.one if value >> shift & 1 else node.zero
            if node is None:
                return None
            path.append(node)
        return path

    def _find(self, prefix: Prefix) -> TrieNode | None:
        """`prefix`'s node, or None: `_walk` without the path."""
        node = self.root
        value = prefix.value
        for shift in range(prefix.length - 1, -1, -1):
            node = node.one if value >> shift & 1 else node.zero
            if node is None:
                return None
        return node

    def _covered(self, node: TrieNode) -> bool:
        """Whether a rule or marker node lies on the root path to `node`,
        `node` included: then each missing child of `node` is an induced
        class. Walks from the root, so the hot walks need not track it."""
        return any(n.is_rule for n in self._walk(Prefix(node.value, node.depth)))

    def port(self, prefix: Prefix, router: str) -> int | None:
        """`router`'s port for exactly `prefix`, or None if it has no such rule."""
        node = self._find(prefix)
        return None if node is None else node.owners.get(router)

    # ------------------------------------------------------------------
    # mutations

    def _insert_path(self, prefix: Prefix) -> tuple[TrieNode, UpdateOutcome]:
        """Shared insert flow: ensure `prefix`'s path and return its node,
        which the caller marks, with the insert's outcome."""
        if prefix.length > self.width:
            raise PrefixTooLong(f"{prefix} exceeds width {self.width}")
        node = self.root
        created = 0
        branch = None        # deepest pre-existing node that gained a child
        value, length = prefix.value, prefix.length
        for shift in range(length - 1, -1, -1):
            bit = value >> shift & 1
            nxt = node.one if bit else node.zero
            if nxt is None:
                if branch is None:
                    branch = node
                nxt = self._new_child(node, bit)
                created += 1
            node = nxt
        if created:
            # one new leaf beside a sibling under a cover fills exactly an
            # induced class: no boundary moves
            new_leaf = not (created == 1 and branch.zero is not None
                            and branch.one is not None and self._covered(branch))
            return node, UpdateOutcome(created, new_leaf, new_leaf)
        # an uncovered interior node that becomes a rule induces classes under it
        if node.is_leaf or node.is_rule or self._covered(node):
            return node, _KEPT
        return node, _MOVED

    def insert_header(self, prefix: Prefix, owner: tuple[str, int]) -> UpdateOutcome:
        """Insert a forwarding rule header owned by (router, port).

        Re-inserting the same (prefix, router) replaces the port: a class
        resolves to at most one port per router under longest-prefix match.
        """
        node, outcome = self._insert_path(prefix)
        _write_owner(node, *owner)
        return outcome

    def insert_owners(self, prefix: Prefix, owners: dict[str, int]) -> UpdateOutcome:
        """Bulk variant of insert_header: one walk, many owners.

        Takes ownership of `owners`: a node with no owners yet adopts the
        dict itself, so the caller must not change it afterwards. The node's
        map is replaced, not edited, so its log starts over.
        """
        node, outcome = self._insert_path(prefix)
        node.owners = {**node.owners, **owners} if node.owners else owners
        node.log = _NO_LOG
        return outcome

    def insert_acl(self, prefix: Prefix, router: str, permit: bool) -> UpdateOutcome:
        node, outcome = self._insert_path(prefix)
        node.acl = {**node.acl, router: permit}
        return outcome

    def insert_transform(self, match: Prefix, router: str, out: Prefix) -> UpdateOutcome:
        node, outcome = self._insert_path(match)
        node.xform = {**node.xform, router: out}
        return outcome

    def insert_marker(self, prefix: Prefix) -> UpdateOutcome:
        node, outcome = self._insert_path(prefix)
        node.marker = True
        return outcome

    def delete_header(self, prefix: Prefix, owner: tuple[str, int]) -> UpdateOutcome:
        """Remove a forwarding rule; a node left with no rule and no child
        is pruned, and so are its bare ancestors."""
        if prefix.length > self.width:
            raise PrefixTooLong(f"{prefix} exceeds width {self.width}")
        router, port = owner
        node = self._find(prefix)
        if node is None:
            raise NotFound(f"no node for {prefix}")
        if node.owners.get(router) != port:
            raise NotFound(f"({prefix}, {(router, port)}) not present")
        _write_owner(node, router, None)
        if node.is_rule:
            return _KEPT                        # other rules keep the node alive
        self._prune_upward(self._walk(prefix))
        return _MOVED

    def _prune_upward(self, path: list[TrieNode]) -> None:
        """Drop trailing chain nodes that carry no rule and no children."""
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            if node.is_rule or not node.is_leaf:
                break
            self._unlink(path[i - 1], node)

    # ------------------------------------------------------------------
    # affected sets

    def compute_affected(self, *prefixes: Prefix) -> AffectedSets:
        """Classes possibly affected by updates at `prefixes`.

        One walk from the root follows every prefix's path and collects the
        classes under each prefix's node, in range-start order: the rule
        leaves, and an induced class at each missing child of a node at or
        below a rule node. Nested and repeated prefixes add nothing. A
        prefix with no node (its rules were deleted) yields the induced
        class it lies in, if any; otherwise it clamps to its deepest
        existing ancestor, whose classes it yields. Each class keeps the
        rule-bearing nodes on its root path (see `AffectedSets.chains`), so
        a session can resolve longest-prefix winners without another trie
        pass.

        The walk is one stack of ``(node, chain, covered, targets)``, the
        zero side above the one side, so classes come off it in order.
        ``chain`` holds the rule-bearing nodes above `node`. With
        ``targets``, the prefixes whose paths run through `node`, it seeks
        them; without, it collects every class under `node`, ``covered``
        telling whether a rule or marker node lies above it. A ``covered``
        of None marks an induced class's prefix in place of a node.
        """
        width = self.width
        classes: list[Prefix] = []
        chains: list[tuple[ChainEntry, ...]] = []
        has_xform = False
        visits = 1 if prefixes else 0
        stack: list[tuple] = [(self.root, (), False, prefixes)] if prefixes else []
        while stack:
            node, chain, covered, targets = stack.pop()
            if covered is None:
                classes.append(node)
                chains.append(chain)
                continue
            if targets is not None:
                # walk the path every target shares, then split where they diverge
                lead = targets[0]
                value, length = lead.value, lead.length
                shared = length
                for p in targets[1:]:
                    k = min(length, p.length)
                    diff = (value >> (length - k)) ^ (p.value >> (p.length - k))
                    shared = min(shared, k - diff.bit_length())
                depth = node.depth
                for shift in range(length - 1 - depth, length - 1 - shared, -1):
                    child = node.one if value >> shift & 1 else node.zero
                    if child is None:
                        break                   # the targets left the trie here
                    if node.owners or node.acl or node.xform:
                        chain += (_entry(node, width),)
                        if node.xform:
                            has_xform = True
                    node = child
                depth, visits = node.depth, visits + node.depth - depth
                zero, one = node.zero, node.one
                if zero is None and one is None:
                    covered = False             # a leaf is its own class
                elif depth == shared and (len(targets) == 1 or
                                          any(p.length == shared for p in targets)):
                    covered = self._covered(node)
                elif (zero is None or one is None) and not self._covered(node):
                    covered = False             # clamp to the deepest node
                else:
                    # split the targets by their next bit; a side with no
                    # child is an induced class, which holds that side's targets
                    groups: tuple[list, list] = ([], [])
                    for p in targets:
                        groups[p.bit(depth)].append(p)
                    if node.owners or node.acl or node.xform:
                        chain += (_entry(node, width),)
                        if node.xform:
                            has_xform = True
                    for group, child in ((groups[1], one), (groups[0], zero)):
                        if group:
                            visits += 1
                            if child is None:
                                stack.append((node.gap(), chain, None, None))
                            else:
                                stack.append((child, chain, False, group))
                    continue
            # every class under `node`
            if node.owners or node.acl or node.xform:
                chain += (_entry(node, width),)
                if node.xform:
                    has_xform = True
                covered = True
            zero, one = node.zero, node.one
            if zero is None and one is None:
                classes.append(node.prefix())
                chains.append(chain)
                continue
            covered = covered or node.marker
            if one is not None:
                visits += 1
                stack.append((one, chain, covered, None))
            elif covered:
                visits += 1
                stack.append((node.gap(), chain, None, None))
            if zero is not None:
                visits += 1
                stack.append((zero, chain, covered, None))
            elif covered:
                visits += 1
                classes.append(node.gap())      # before the one side, still on the stack
                chains.append(chain)
        self.last_affected_visits = visits

        return _filled(AffectedSets, {
            "classes": tuple(classes),
            "class_ranges": tuple([p.range(width) for p in classes]),
            "width": width,
            "chains": tuple(chains),
            "has_transforms": has_xform,
        })

    # ------------------------------------------------------------------
    # introspection

    def snapshot(self):
        """Canonical structural dump (for equality checks in tests)."""
        def dump(node):
            if node is None:
                return None
            return (
                tuple(sorted(node.owners.items())),
                tuple(sorted(node.acl.items())),
                tuple(sorted((r, (out.value, out.length)) for r, out in node.xform.items())),
                node.marker,
                dump(node.zero),
                dump(node.one),
            )
        return dump(self.root)
