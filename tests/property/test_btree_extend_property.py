"""Differential: ``BPlusTree.extend`` against ``insert`` of each pair.

``extend`` appends a key at or above the rightmost leaf's last key along
a kept rightmost spine and sends any other key down ``insert``. The
oracle is a fresh ``BPlusTree`` fed the same pairs one ``insert`` at a
time; the two trees must be equal node for node — keys, each slot's
rids, children, the leaf chain, ``height`` and ``len`` — because ``height``
and the leaf count place the index pages the simulation charges.

Key orders cover sorted, reversed, random and mixed runs, duplicate keys
and composite keys, over orders 4–32, into empty trees and into trees
that already hold keys (some of them deleted again, so the spine's
separators are left over from keys that are gone).

``test_mutants_are_caught`` breaks the split once and requires the
differential to find it.
"""

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree

orders = st.integers(min_value=4, max_value=32)
ints = st.integers(min_value=0, max_value=60)
single = st.builds(lambda k: (k,), ints)
composite = st.tuples(ints, st.sampled_from(["a", "b", "bb", "c"]))


def runs(keys):
    """Lists of keys in sorted, reversed, random or mixed-run order."""
    def arrange(parts):
        out = []
        for how, chunk in parts:
            if how == "sorted":
                chunk = sorted(chunk)
            elif how == "reversed":
                chunk = sorted(chunk, reverse=True)
            out.extend(chunk)
        return out
    return st.lists(st.tuples(st.sampled_from(["sorted", "reversed",
                                               "random"]),
                              st.lists(keys, max_size=80)),
                    max_size=4).map(arrange)


def pairs_of(keys):
    return runs(keys).map(lambda ks: [(k, rid) for rid, k in enumerate(ks)])


def rids_in(slot):
    """A leaf slot's rids as a list: it holds a bare rid or a list."""
    return list(slot) if type(slot) is list else [slot]


def keys_of(node, bare):
    """A node's keys as callers pass them: a one-column tree (``bare``)
    stores each key's value, which is wrapped back into its 1-tuple."""
    return [(key,) for key in node.keys] if bare else list(node.keys)


def shape(node, bare=False):
    """A node's whole subtree as nested tuples, each slot as a list."""
    if node.leaf:
        return ("leaf", keys_of(node, bare),
                [rids_in(v) for v in node.values])
    return ("node", keys_of(node, bare),
            [shape(c, bare) for c in node.children])


def leaf_chain(tree):
    node, chain = tree._leftmost_leaf(), []
    while node is not None:
        chain.append(keys_of(node, bare_of(tree)))
        node = node.next_leaf
    return chain


def bare_of(tree):
    """Does ``tree`` store bare values? (An oracle tree never does.)"""
    return getattr(tree, "_bare", False)


def state(tree):
    return (shape(tree._root, bare_of(tree)), leaf_chain(tree), tree.height,
            len(tree))


def build(cls, order, before, deleted, pairs, bulk):
    """A tree holding ``before`` minus ``deleted``, then ``pairs`` added
    with ``extend`` (``bulk``) or one ``insert`` each."""
    tree = cls(order=order)
    for key, rid in before:
        tree.insert(key, rid)
    for key, rid in deleted:
        tree.delete(key, rid)
    if bulk:
        tree.extend(iter(pairs))
    else:
        for key, rid in pairs:
            tree.insert(key, rid)
    return tree


def diverges(cls, case):
    order, before, deleted, pairs = case
    want = build(BPlusTree, order, before, deleted, pairs, bulk=False)
    got = build(cls, order, before, deleted, pairs, bulk=True)
    return state(got) != state(want)


def cases(keys):
    @st.composite
    def case(draw):
        order = draw(orders)
        before = [(k, -1 - i) for i, k in enumerate(draw(runs(keys)))]
        deleted = draw(st.lists(st.sampled_from(before), max_size=40)
                       if before else st.just([]))
        return order, before, deleted, draw(pairs_of(keys))
    return case()


@settings(max_examples=150, deadline=None)
@given(cases(single))
def test_extend_equals_inserts(case):
    assert not diverges(BPlusTree, case)
    order, before, deleted, pairs = case
    build(BPlusTree, order, before, deleted, pairs,
          bulk=True).check_invariants()


@settings(max_examples=100, deadline=None)
@given(cases(composite))
def test_extend_equals_inserts_on_composite_keys(case):
    assert not diverges(BPlusTree, case)


@settings(max_examples=30, deadline=None)
@given(orders, st.integers(min_value=0, max_value=3000))
def test_a_sorted_load_stays_on_the_spine(order, n):
    """Thousands of ascending keys, as a tenant's load brings them."""
    pairs = [((k,), k) for k in range(n)]
    assert not diverges(BPlusTree, (order, [], [], pairs))


class SplitPastMid(BPlusTree):
    """Splits a full leaf one key right of the middle."""

    def _split_leaf(self, node):
        mid = len(node.keys) // 2 + 1
        right = type(node)(leaf=True)
        right.keys, right.values = node.keys[mid:], node.values[mid:]
        node.keys, node.values = node.keys[:mid], node.values[:mid]
        right.next_leaf, node.next_leaf = node.next_leaf, right
        return right.keys[0], right


def test_mutants_are_caught():
    case = find(cases(single), lambda c: diverges(SplitPastMid, c),
                settings=settings(max_examples=2000, deadline=None,
                                  derandomize=True, database=None,
                                  phases=[Phase.generate]))
    assert not diverges(BPlusTree, case)
