"""A B+Tree used for primary and secondary indexes.

Callers pass keys as tuples of SQL values; each key maps to the row ids
carrying it. A tree of ``width`` 1 (a one-column index) stores each key's
value itself, not its 1-tuple: the public methods unwrap the tuple they
are given, ``rids`` hands ``past`` a rebuilt 1-tuple and ``range_scan``
rebuilds the key as it yields it. A bare value orders, compares and
raises as its 1-tuple does, so the tree is node for node the one the
tuples build. A leaf slot holds the rid itself (rids are never lists)
while its key has one, and a list from the second rid on, which
``delete`` turns back into the survivor: a unique index holds no list.
Leaves are chained for range scans. The tree tracks how many *nodes* a
lookup traverses so the executor can charge buffer-pool page accesses that
scale realistically (log of table size).

``extend`` is ``insert`` of many pairs in one pass: a key at or above the
rightmost leaf's last key is appended along a kept rightmost spine, any
other key descends as ``insert`` does. The tree is node for node the one
the inserts grow, whatever the key order — keys are never sorted into a
fresh tree, whose fill and ``height`` (and so the index pages the
simulation charges) would differ.

Invariants (checked by ``check_invariants`` and exercised by the
hypothesis suite):

* every node except the root has between ceil(order/2)-1 and order-1 keys;
* internal node keys separate the key ranges of their children;
* all leaves are at the same depth and chained left-to-right in key order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

Key = Tuple[Any, ...]


def _rids_of(slot: Any) -> List[Any]:
    """The row ids a leaf slot holds, as a fresh list."""
    return list(slot) if type(slot) is list else [slot]


def _add(values: List[Any], idx: int, rid: Any) -> None:
    """Add ``rid`` to the key held at ``values[idx]``."""
    slot = values[idx]
    if type(slot) is list:
        slot.append(rid)
    else:
        values[idx] = [slot, rid]


class _Node:
    __slots__ = ("leaf", "keys", "children", "values", "next_leaf")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: List[Key] = []
        # Internal nodes: children[i] holds keys < keys[i] (and the last
        # child holds keys >= keys[-1]).
        self.children: List["_Node"] = []
        # Leaves: values[i] is keys[i]'s row id, or a list of two or more.
        self.values: List[Any] = []
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """A B+Tree mapping tuple keys to row ids (``width``: the index's
    column count; 0 for keys of any width)."""

    __slots__ = ("order", "_bare", "_root", "_height", "_size")

    def __init__(self, order: int = 32, width: int = 0):
        if order < 4:
            raise ValueError(f"b+tree order must be >= 4: {order}")
        self.order = order
        self._bare = width == 1
        self._root = _Node(leaf=True)
        self._height = 1
        self._size = 0  # number of distinct keys

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of node levels from root to leaf (>= 1)."""
        return self._height

    # -- search ---------------------------------------------------------

    def _find_leaf(self, key: Key) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[self._child_index(node, key)]
        return node

    @staticmethod
    def _child_index(node: _Node, key: Key) -> int:
        """Index of the child subtree that may contain ``key``."""
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < node.keys[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @staticmethod
    def _key_index(node: _Node, key: Key) -> int:
        """Insertion point of ``key`` within a leaf."""
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if node.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search(self, key: Key) -> List[Any]:
        """Row ids stored under ``key`` (empty list if absent)."""
        if self._bare:
            key = key[0]
        leaf = self._find_leaf(key)
        idx = self._key_index(leaf, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return _rids_of(leaf.values[idx])
        return []

    def contains(self, key: Key) -> bool:
        if self._bare:
            key = key[0]
        leaf = self._find_leaf(key)
        idx = self._key_index(leaf, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def range_scan(
        self,
        lo: Optional[Key] = None,
        hi: Optional[Key] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[Tuple[Key, List[Any]]]:
        """Yield (key, row-ids) for keys within the given bounds, in order.

        ``None`` bounds are open. Composite keys compare with standard
        tuple ordering, so a prefix bound like ``(x,)`` behaves as
        expected for multi-column indexes.
        """
        bare, bounded = self._bare, hi is not None
        if bare and bounded:
            hi = hi[0]
        if lo is None:
            node: Optional[_Node] = self._leftmost_leaf()
            idx = 0
        else:
            if bare:
                lo = lo[0]
            node = self._find_leaf(lo)
            idx = self._key_index(node, lo)
            if not lo_inclusive:
                while (
                    node is not None
                    and idx < len(node.keys)
                    and node.keys[idx] == lo
                ):
                    idx += 1
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if bounded:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                yield (key,) if bare else key, _rids_of(node.values[idx])
                idx += 1
            node = node.next_leaf
            idx = 0

    def rids(
        self,
        lo: Optional[Key] = None,
        lo_inclusive: bool = True,
        past: Optional[Callable[[Key], bool]] = None,
    ) -> List[Any]:
        """Row ids of every key from ``lo`` on, in key order, each key's
        rids sorted — the rids :meth:`range_scan` would yield, flattened.

        ``past`` is the upper bound: a predicate on a key that is False up
        to the range's last key and True after it (None: no bound). It is
        asked about the first key in range of each leaf before anything
        else, then about the leaf's last key; only the leaf where the
        range ends is searched key by key. A leaf wholly inside the range
        costs one slice.
        """
        if self._bare and past is not None:
            past = lambda value, past=past: past((value,))
        if lo is None:
            node: Optional[_Node] = self._leftmost_leaf()
            idx = 0
        else:
            if self._bare:
                lo = lo[0]
            node = self._find_leaf(lo)
            idx = self._key_index(node, lo)
            if (not lo_inclusive and idx < len(node.keys)
                    and node.keys[idx] == lo):
                idx += 1
        out: List[Any] = []
        append = out.append
        while node is not None:
            keys = node.keys
            end = len(keys)
            if idx < end and past is not None and (
                    past(keys[idx]) or past(keys[-1])):
                end = idx
                while end < len(keys) and not past(keys[end]):
                    end += 1
            for slot in node.values[idx:end]:
                if type(slot) is list:
                    out.extend(sorted(slot))
                else:
                    append(slot)
            if end < len(keys):
                break
            node = node.next_leaf
            idx = 0
        return out

    def items(self) -> Iterator[Tuple[Key, List[Any]]]:
        """All (key, row-ids) in key order."""
        return self.range_scan()

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        return node

    # -- insertion ------------------------------------------------------

    def insert(self, key: Key, rid: Any) -> None:
        """Add ``rid`` under ``key`` (appends for duplicate keys)."""
        if self._bare:
            key = key[0]
        split = self._insert(self._root, key, rid)
        if split is not None:
            self._grow_root(*split)

    def _grow_root(self, sep: Key, right: _Node) -> _Node:
        """A new root over the split old root and its right half."""
        root = _Node(leaf=False)
        root.keys = [sep]
        root.children = [self._root, right]
        self._root = root
        self._height += 1
        return root

    def extend(self, pairs: Iterable[Tuple[Key, Any]]) -> None:
        """``insert(key, rid)`` for each pair in turn, in one pass.

        The tree it leaves is node for node the one the inserts leave,
        for any key order. A key at or above the rightmost leaf's last
        key is where ``insert``'s descent would take it: every separator
        on the rightmost spine is at most that leaf's first key. Such a
        key is appended there, and a split runs up the kept spine
        through ``_split_leaf`` / ``_split_internal`` exactly as the
        recursive path would, the new right halves becoming the spine.
        Any other key (or one that does not compare with the last key)
        takes ``insert``'s descent, and the spine is re-read after it.
        """
        if self._bare:
            pairs = ((key[0], rid) for key, rid in pairs)
        spine = self._spine()
        leaf = spine[-1]
        for key, rid in pairs:
            keys = leaf.keys
            try:
                tail = not keys or keys[-1] < key
                same = not tail and keys[-1] == key
            except TypeError:
                tail = same = False
            if same:
                _add(leaf.values, -1, rid)
                continue
            if not tail:
                split = self._insert(self._root, key, rid)
                if split is not None:
                    self._grow_root(*split)
                spine = self._spine()
                leaf = spine[-1]
                continue
            keys.append(key)
            leaf.values.append(rid)
            self._size += 1
            if len(keys) < self.order:
                continue
            sep, right = self._split_leaf(leaf)
            leaf = right
            level = len(spine) - 1
            spine[level] = right
            while True:
                if level == 0:
                    spine.insert(0, self._grow_root(sep, right))
                    break
                level -= 1
                parent = spine[level]
                parent.keys.append(sep)
                parent.children.append(right)
                if len(parent.children) <= self.order:
                    break
                sep, right = self._split_internal(parent)
                spine[level] = right

    def _spine(self) -> List[_Node]:
        """The nodes from the root down to the rightmost leaf."""
        node = self._root
        spine = [node]
        while not node.leaf:
            node = node.children[-1]
            spine.append(node)
        return spine

    def _insert(
        self, node: _Node, key: Key, rid: Any
    ) -> Optional[Tuple[Key, _Node]]:
        """Insert into subtree; return (separator, new-right-node) on split."""
        if node.leaf:
            idx = self._key_index(node, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                _add(node.values, idx, rid)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, rid)
            self._size += 1
            if len(node.keys) < self.order:
                return None
            return self._split_leaf(node)
        idx = self._child_index(node, key)
        split = self._insert(node.children[idx], key, rid)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self.order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> Tuple[Key, _Node]:
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> Tuple[Key, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- deletion -------------------------------------------------------

    def delete(self, key: Key, rid: Any) -> bool:
        """Remove one ``rid`` from ``key``; drop the key when empty.

        Returns True if something was removed.
        """
        if self._bare:
            key = key[0]
        removed = self._delete(self._root, key, rid)
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        return removed

    def _min_keys(self) -> int:
        # ceil(order/2) children -> that many - 1 keys.
        return (self.order + 1) // 2 - 1

    def _delete(self, node: _Node, key: Key, rid: Any) -> bool:
        if node.leaf:
            idx = self._key_index(node, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                return False
            slot = node.values[idx]
            if type(slot) is list:
                try:
                    slot.remove(rid)
                except ValueError:
                    return False
                if len(slot) == 1:
                    node.values[idx] = slot[0]
            elif slot != rid:
                return False
            else:
                node.keys.pop(idx)
                node.values.pop(idx)
                self._size -= 1
            return True
        idx = self._child_index(node, key)
        child = node.children[idx]
        removed = self._delete(child, key, rid)
        if removed:
            self._rebalance(node, idx)
        return removed

    def _rebalance(self, parent: _Node, idx: int) -> None:
        """Fix up ``parent.children[idx]`` if it underflowed."""
        child = parent.children[idx]
        min_keys = self._min_keys()
        if child.leaf:
            if len(child.keys) >= max(1, min_keys):
                return
        else:
            if len(child.children) >= min_keys + 1:
                return

        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None

        if child.leaf:
            if left is not None and len(left.keys) > max(1, min_keys):
                child.keys.insert(0, left.keys.pop())
                child.values.insert(0, left.values.pop())
                parent.keys[idx - 1] = child.keys[0]
                return
            if right is not None and len(right.keys) > max(1, min_keys):
                child.keys.append(right.keys.pop(0))
                child.values.append(right.values.pop(0))
                parent.keys[idx] = right.keys[0]
                return
            if left is not None:
                left.keys.extend(child.keys)
                left.values.extend(child.values)
                left.next_leaf = child.next_leaf
                parent.keys.pop(idx - 1)
                parent.children.pop(idx)
            elif right is not None:
                child.keys.extend(right.keys)
                child.values.extend(right.values)
                child.next_leaf = right.next_leaf
                parent.keys.pop(idx)
                parent.children.pop(idx + 1)
            return

        # Internal child underflow.
        if left is not None and len(left.children) > min_keys + 1:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
            return
        if right is not None and len(right.children) > min_keys + 1:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
            return
        if left is not None:
            left.keys.append(parent.keys[idx - 1])
            left.keys.extend(child.keys)
            left.children.extend(child.children)
            parent.keys.pop(idx - 1)
            parent.children.pop(idx)
        elif right is not None:
            child.keys.append(parent.keys[idx])
            child.keys.extend(right.keys)
            child.children.extend(right.children)
            parent.keys.pop(idx)
            parent.children.pop(idx + 1)

    # -- invariant checking (used by tests) ------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is broken."""
        leaves: List[_Node] = []
        self._check_node(self._root, None, None, leaves, is_root=True)
        depths = {d for _, d in self._walk_depths(self._root, 1)}
        assert len(depths) == 1, f"leaves at different depths: {depths}"
        # Leaf chain must visit exactly the in-order leaves.
        chain: List[_Node] = []
        node: Optional[_Node] = self._leftmost_leaf()
        while node is not None:
            chain.append(node)
            node = node.next_leaf
        assert chain == leaves, "leaf chain disagrees with tree order"
        all_keys = [k for leaf in leaves for k in leaf.keys]
        assert all_keys == sorted(all_keys), "keys out of order"
        assert len(all_keys) == self._size, "size counter drifted"

    def _walk_depths(self, node: _Node, depth: int):
        if node.leaf:
            yield node, depth
        else:
            for child in node.children:
                yield from self._walk_depths(child, depth + 1)

    def _check_node(
        self,
        node: _Node,
        lo: Optional[Key],
        hi: Optional[Key],
        leaves: List[_Node],
        is_root: bool,
    ) -> None:
        for key in node.keys:
            assert lo is None or key >= lo, f"key {key} below bound {lo}"
            assert hi is None or key < hi, f"key {key} above bound {hi}"
        assert node.keys == sorted(node.keys)
        if node.leaf:
            assert len(node.keys) == len(node.values)
            assert len(node.keys) < self.order
            if not is_root:
                assert len(node.keys) >= 1
            for slot in node.values:
                assert type(slot) is not list or len(slot) > 1, "one-rid list"
            leaves.append(node)
            return
        assert len(node.children) == len(node.keys) + 1
        assert len(node.children) <= self.order
        if not is_root:
            assert len(node.children) >= self._min_keys() + 1
        else:
            assert len(node.children) >= 2
        bounds = [lo] + list(node.keys) + [hi]
        for i, child in enumerate(node.children):
            self._check_node(child, bounds[i], bounds[i + 1], leaves, is_root=False)
