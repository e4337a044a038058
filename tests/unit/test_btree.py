"""Unit tests for the B+Tree index."""

import random
import tracemalloc

import pytest

from repro.engine.btree import BPlusTree


class TestBasics:
    def test_order_minimum(self):
        with pytest.raises(ValueError):
            BPlusTree(order=3)

    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search((1,)) == []
        assert not tree.contains((1,))
        assert list(tree.items()) == []

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert((5,), "r5")
        tree.insert((3,), "r3")
        assert tree.search((5,)) == ["r5"]
        assert tree.search((4,)) == []
        assert len(tree) == 2

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert sorted(tree.search((1,))) == ["a", "b"]
        assert len(tree) == 1  # one distinct key

    def test_delete_one_of_duplicates(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert tree.delete((1,), "a")
        assert tree.search((1,)) == ["b"]

    def test_delete_missing_returns_false(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "a")
        assert not tree.delete((2,), "a")
        assert not tree.delete((1,), "zzz")

    def test_composite_keys_order(self):
        tree = BPlusTree(order=4)
        for key in [(2, 1), (1, 9), (1, 2), (2, 0)]:
            tree.insert(key, key)
        keys = [k for k, _ in tree.items()]
        assert keys == [(1, 2), (1, 9), (2, 0), (2, 1)]


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for k in range(0, 100, 2):  # evens 0..98
            tree.insert((k,), f"r{k}")
        return tree

    def test_full_scan_sorted(self, tree):
        keys = [k[0] for k, _ in tree.range_scan()]
        assert keys == list(range(0, 100, 2))

    def test_bounded_inclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan((10,), (20,))]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_bounded_exclusive(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(
            (10,), (20,), lo_inclusive=False, hi_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_bounds_between_keys(self, tree):
        keys = [k[0] for k, _ in tree.range_scan((9,), (15,))]
        assert keys == [10, 12, 14]

    def test_open_low_bound(self, tree):
        keys = [k[0] for k, _ in tree.range_scan(None, (6,))]
        assert keys == [0, 2, 4, 6]

    def test_open_high_bound(self, tree):
        keys = [k[0] for k, _ in tree.range_scan((94,), None)]
        assert keys == [94, 96, 98]

    def test_empty_range(self, tree):
        assert list(tree.range_scan((200,), (300,))) == []


class TestStructure:
    @pytest.mark.parametrize("order", [4, 5, 7, 16])
    def test_invariants_random_workload(self, order):
        rng = random.Random(order)
        tree = BPlusTree(order=order)
        keys = list(range(300))
        rng.shuffle(keys)
        for i, k in enumerate(keys):
            tree.insert((k,), f"r{k}")
            if i % 50 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert tree.height > 1
        rng.shuffle(keys)
        for i, k in enumerate(keys):
            assert tree.delete((k,), f"r{k}")
            if i % 50 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == 0

    def test_sequential_insert_then_reverse_delete(self):
        tree = BPlusTree(order=4)
        for k in range(200):
            tree.insert((k,), k)
        tree.check_invariants()
        for k in reversed(range(200)):
            assert tree.delete((k,), k)
        tree.check_invariants()
        assert len(tree) == 0

    def test_height_grows_logarithmically(self):
        tree = BPlusTree(order=32)
        for k in range(2000):
            tree.insert((k,), k)
        assert tree.height <= 4


def test_bytes_per_unique_entry():
    """A unique index costs its keys' and rids' slots, not a list per key:
    under ``tracemalloc`` the tree alone takes ~33 B per single-int entry
    (~97 B while every slot held a one-rid list, CPython 3.11)."""
    n = 100_000
    rids = list(range(n))
    keys = [(rid,) for rid in rids]
    tracemalloc.start()
    try:
        tree = BPlusTree()
        tree.extend(zip(keys, rids))
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tree) == n
    assert traced / n <= 48, f"{traced / n:.1f} B per entry"


class TestOneColumn:
    """A ``width=1`` tree stores bare values behind the tuple-key API."""

    def test_stores_values_and_answers_in_tuples(self):
        tree = BPlusTree(order=4, width=1)
        tree.extend(((k,), k) for k in range(20))
        tree.insert((5,), 99)
        assert all(type(key) is int for key in tree._root.keys)
        assert tree.search((5,)) == [5, 99]
        assert tree.contains((19,)) and not tree.contains((20,))
        assert list(tree.range_scan((3,), (5,))) == [
            ((3,), [3]), ((4,), [4]), ((5,), [5, 99])]
        assert tree.rids((17,), False, lambda key: key > (18,)) == [18]
        assert tree.delete((5,), 99) and tree.search((5,)) == [5]
        tree.check_invariants()

    def test_null_raises_as_the_tuple_does(self):
        errors = []
        for width in (0, 1):
            tree = BPlusTree(order=4, width=width)
            tree.insert((1,), 1)
            with pytest.raises(TypeError) as info:
                tree.insert((None,), 2)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
