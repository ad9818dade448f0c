"""Network-wide binary tree over rule headers.

Every rule header (forwarding, ACL, transform, or plain boundary marker)
terminates a root-to-node path. Leaves are the non-overlapping header
classes: a rule header ending at a leaf is *atomic*, a rule header ending at
an interior node is a *supernet*, and *iatomic* leaves are synthesized so the
leaf set exactly partitions every supernet's range. Updating a rule
re-derives labels and iatomic leaves locally, and `compute_affected` reports
the classes whose behavior an update (or a batch of them) may have changed,
each with the rule-bearing nodes its longest-prefix winners come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from .errors import NodeMissing, NotFound, PrefixTooLong
from .prefixes import Prefix


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
    __slots__ = ("zero", "one", "owners", "log", "acl", "xform", "marker",
                 "label", "value", "depth", "_prefix")

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
        self.label = Label.NONE
        self.value = value                      # path bits as an integer
        self.depth = depth
        self._prefix: Prefix | None = None

    @property
    def is_leaf(self) -> bool:
        return self.zero is None and self.one is None

    @property
    def is_rule(self) -> bool:
        return bool(self.owners or self.acl or self.xform or self.marker)

    def prefix(self) -> Prefix:
        """The node's prefix, built on first use and kept (a node never
        moves), so affected sets reuse one `Prefix` per class."""
        if self._prefix is None:
            self._prefix = Prefix(self.value, self.depth)
        return self._prefix


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
    new_leaf: bool
    # False when the update left every node and marker in place (an insert
    # that created no node, or a delete whose node stays a rule), so no
    # class boundary moved
    shape_changed: bool


# A rule-bearing trie node as a class's chain records it:
#   (owners, log, mark, acl, xform, lo)
# `owners` and `log` are the node's owner map and change log and `mark` the
# log's length at capture; read a router's port through `chain_port`, which
# undoes the writes logged since. `acl` and `xform` are the node's ACL and
# rewrite maps as they were at capture, and `lo` the low end of the node's
# header range.
ChainEntry = tuple[dict[str, int], list, int, dict[str, bool], dict[str, Prefix], int]


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
    # leaves

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

    def _leaves(self):
        """The labelled leaves, in range-start order (an empty trie has none)."""
        return (n for n in self.nodes()
                if n.zero is None and n.one is None and n.label != Label.NONE)

    def leaf_entries(self) -> list[tuple[Prefix, Label, int]]:
        """All classes as (prefix, label, coordinate), in range-start order."""
        return [(n.prefix(), Label(n.label), i) for i, n in enumerate(self._leaves())]

    @property
    def num_leaves(self) -> int:
        return sum(1 for _ in self._leaves())

    @property
    def iatomic_count(self) -> int:
        return sum(1 for n in self._leaves() if n.label == Label.IATOMIC)

    # ------------------------------------------------------------------
    # structural helpers

    def _relabel(self, node: TrieNode) -> None:
        if node.is_leaf:
            if node.is_rule:
                node.label = Label.ATOMIC
            else:                               # an empty root is no class
                node.label = Label.IATOMIC if node.depth else Label.NONE
        else:
            node.label = Label.SUPERNET if node.is_rule else Label.NONE

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

    def port(self, prefix: Prefix, router: str) -> int | None:
        """`router`'s port for exactly `prefix`, or None if it has no such rule."""
        path = self._walk(prefix)
        return None if path is None else path[-1].owners.get(router)

    def _complete(self, top: TrieNode, covered: bool) -> int:
        """Create iatomic siblings for single-child nodes under supernets."""
        created = 0
        stack = [(top, covered)]
        while stack:
            node, cov = stack.pop()
            cov = cov or node.label == Label.SUPERNET
            zero, one = node.zero, node.one
            if cov and (zero is None) != (one is None):
                sib = self._new_child(node, 0 if zero is None else 1)
                sib.label = Label.IATOMIC
                created += 1
            for child in (node.zero, node.one):
                if child is not None and not child.is_leaf:
                    stack.append((child, cov))
        return created

    @staticmethod
    def _nearest_supernet(path: list[TrieNode]) -> TrieNode | None:
        for node in reversed(path):
            if node.label == Label.SUPERNET:
                return node
        return None

    # ------------------------------------------------------------------
    # mutations

    def _apply_insert(self, prefix: Prefix, mark, materialize: bool) -> UpdateOutcome:
        """Shared insert flow: ensure the node, apply `mark`, re-derive locally."""
        if prefix.length > self.width:
            raise PrefixTooLong(f"{prefix} exceeds width {self.width}")
        node = self.root
        path = [node]
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
            path.append(node)
        was_supernet = node.label == Label.SUPERNET
        mark(node)
        if created:
            node.label = Label.ATOMIC
            self._relabel(branch)
        self._relabel(node)
        new_leaf = created > 0
        if materialize:
            if created:
                scope = self._nearest_supernet(path[:-1])
                if scope is not None:
                    created += self._complete(scope, covered=True)
            elif node.label == Label.SUPERNET and not was_supernet:
                created += self._complete(node, covered=True)
        return UpdateOutcome(created_nodes=created, new_leaf=new_leaf,
                             shape_changed=created > 0)

    def insert_header(self, prefix: Prefix, owner: tuple[str, int], *,
                      materialize: bool = True) -> UpdateOutcome:
        """Insert a forwarding rule header owned by (router, port).

        Re-inserting the same (prefix, router) replaces the port: a class
        resolves to at most one port per router under longest-prefix match.
        """
        router, port = owner

        def mark(node):
            _write_owner(node, router, port)

        return self._apply_insert(prefix, mark, materialize)

    def insert_owners(self, prefix: Prefix, owners: dict[str, int], *,
                      materialize: bool = True) -> UpdateOutcome:
        """Bulk variant of insert_header: one walk, many owners.

        Takes ownership of `owners`: a node with no owners yet adopts the
        dict itself, so the caller must not change it afterwards. The node's
        map is replaced, not edited, so its log starts over.
        """
        def mark(node):
            node.owners = {**node.owners, **owners} if node.owners else owners
            node.log = _NO_LOG

        return self._apply_insert(prefix, mark, materialize)

    def insert_acl(self, prefix: Prefix, router: str, permit: bool, *,
                   materialize: bool = True) -> UpdateOutcome:
        def mark(node):
            node.acl = {**node.acl, router: permit}

        return self._apply_insert(prefix, mark, materialize)

    def insert_transform(self, match: Prefix, router: str, out: Prefix, *,
                         materialize: bool = True) -> UpdateOutcome:
        def mark(node):
            node.xform = {**node.xform, router: out}

        return self._apply_insert(match, mark, materialize)

    def insert_marker(self, prefix: Prefix, *, materialize: bool = True) -> UpdateOutcome:
        def mark(node):
            node.marker = True

        return self._apply_insert(prefix, mark, materialize)

    def delete_header(self, prefix: Prefix, owner: tuple[str, int]) -> UpdateOutcome:
        """Remove a forwarding rule; prunes and re-derives the affected region."""
        router, port = owner
        path = self._walk(prefix)
        if path is None:
            raise NotFound(f"no node for {prefix}")
        node = path[-1]
        if node.owners.get(router) != port:
            raise NotFound(f"({prefix}, {(router, port)}) not present")
        _write_owner(node, router, None)
        if node.is_rule:
            return UpdateOutcome(0, False, False)    # other rules keep the node alive
        self._relabel(node)
        created = 0
        scope = self._nearest_supernet(path[:-1])
        if scope is not None:
            created = self._rederive(scope, covered=True)
        elif not node.is_leaf:
            created = self._rederive(node, covered=False)
            self._prune_upward(path)
        elif len(path) > 1:
            self._unlink(path[-2], node)
            self._prune_upward(path[:-1])
        return UpdateOutcome(created_nodes=created, new_leaf=False, shape_changed=True)

    def _prune_upward(self, path: list[TrieNode]) -> None:
        """Drop trailing chain nodes that carry no rule and no children."""
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            if node.is_rule or not node.is_leaf:
                break
            self._unlink(path[i - 1], node)

    def _rederive(self, top: TrieNode, covered: bool) -> int:
        """Re-derive labels and iatomic leaves for the subtree under `top`."""
        self._prune_subtree(top)
        self._relabel(top)
        return self._complete(top, covered)

    def _prune_subtree(self, top: TrieNode) -> None:
        """Remove iatomic leaves and empty chains below `top` (post-order)."""
        def prune(node: TrieNode) -> bool:
            for attr in ("zero", "one"):
                child = getattr(node, attr)
                if child is not None and prune(child):
                    setattr(node, attr, None)
            if node is top:
                return False
            if node.is_leaf:
                if node.is_rule:
                    self._relabel(node)
                    return False
                return True
            self._relabel(node)
            return False

        prune(top)

    def materialize_iatomic(self) -> int:
        """Complete every single-child chain under a supernet, tree-wide.

        Inserts re-derive eagerly, so this returns 0 on an up-to-date trie;
        it exists for bulk loads performed with ``materialize=False``.
        """
        return self._complete(self.root, covered=False)

    # ------------------------------------------------------------------
    # affected sets

    def compute_affected(self, *prefixes: Prefix, clamp: bool = False) -> AffectedSets:
        """Classes possibly affected by updates at `prefixes`.

        One walk from the root follows every prefix's path and collects the
        leaves under each prefix's node, in range-start order; nested and
        repeated prefixes add nothing. Each class keeps the rule-bearing
        nodes on its root path (see `AffectedSets.chains`), so a session
        can resolve longest-prefix winners without another trie pass. With
        ``clamp=True`` a missing node clamps to the deepest existing
        ancestor (used after deletions); otherwise it is an error.
        """
        width = self.width
        leaves: list[TrieNode] = []
        chains: list[tuple[ChainEntry, ...]] = []
        visits = 0
        has_xform = False

        def extend(node: TrieNode, chain: tuple) -> tuple:
            """`chain` plus rule-bearing `node`'s entry."""
            nonlocal has_xform
            if node.xform:
                has_xform = True
            log = node.log
            return chain + ((node.owners, log, len(log), node.acl, node.xform,
                             node.value << (width - node.depth)),)

        def collect(node: TrieNode, chain: tuple) -> None:
            if node.owners or node.acl or node.xform:
                chain = extend(node, chain)
            if node.zero is None and node.one is None:
                leaves.append(node)
                chains.append(chain)
                return
            nonlocal visits
            for child in (node.zero, node.one):
                if child is not None:
                    visits += 1
                    collect(child, chain)

        def seek(node: TrieNode, chain: tuple, targets: list[Prefix]) -> None:
            nonlocal visits
            # walk the path every target shares, then split where they diverge
            lead = targets[0]
            value, length = lead.value, lead.length
            shared = length
            for p in targets:
                k = min(length, p.length)
                diff = (value >> (length - k)) ^ (p.value >> (p.length - k))
                shared = min(shared, k - diff.bit_length())
            for shift in range(length - 1 - node.depth, length - 1 - shared, -1):
                child = node.one if value >> shift & 1 else node.zero
                if child is None:
                    if not clamp:
                        raise NodeMissing(f"no node for {lead}")
                    break                       # clamp to the deepest existing node
                if node.owners or node.acl or node.xform:
                    chain = extend(node, chain)
                node = child
                visits += 1
            if node.depth < shared or any(p.length == shared for p in targets):
                collect(node, chain)
                return
            groups = ([], [])
            for p in targets:
                groups[p.bit(shared)].append(p)
            if node.zero is None or node.one is None:
                if not clamp:
                    raise NodeMissing(f"no node for {groups[node.zero is not None][0]}")
                collect(node, chain)
                return
            if node.owners or node.acl or node.xform:
                chain = extend(node, chain)
            for child, group in zip((node.zero, node.one), groups):
                visits += 1
                seek(child, chain, group)

        if prefixes:
            visits = 1
            seek(self.root, (), list(prefixes))
        self.last_affected_visits = visits

        classes = tuple(n.prefix() for n in leaves)
        return AffectedSets(
            classes=classes,
            class_ranges=tuple(p.range(width) for p in classes),
            width=width,
            chains=tuple(chains),
            has_transforms=has_xform,
        )

    # ------------------------------------------------------------------
    # introspection

    def snapshot(self):
        """Canonical structural dump (for equality checks in tests)."""
        def dump(node):
            if node is None:
                return None
            return (
                int(node.label),
                tuple(sorted(node.owners.items())),
                tuple(sorted(node.acl.items())),
                tuple(sorted((r, (out.value, out.length)) for r, out in node.xform.items())),
                node.marker,
                dump(node.zero),
                dump(node.one),
            )
        return dump(self.root)
