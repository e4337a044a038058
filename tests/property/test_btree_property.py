"""Property-based tests: the B+Tree against a dict model."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.engine.btree import BPlusTree

keys = st.integers(min_value=0, max_value=200)
rids = st.integers(min_value=0, max_value=20)


@settings(max_examples=60)
@given(st.lists(st.tuples(keys, rids)))
def test_insert_matches_model(pairs):
    tree = BPlusTree(order=5)
    model = defaultdict(list)
    for key, rid in pairs:
        tree.insert((key,), rid)
        model[key].append(rid)
    tree.check_invariants()
    for key, vals in model.items():
        assert sorted(tree.search((key,))) == sorted(vals)
    assert len(tree) == len(model)


@settings(max_examples=60)
@given(st.lists(st.tuples(keys, rids)), st.data())
def test_range_scan_matches_model(pairs, data):
    tree = BPlusTree(order=4)
    model = defaultdict(list)
    for key, rid in pairs:
        tree.insert((key,), rid)
        model[key].append(rid)
    lo = data.draw(keys)
    hi = data.draw(keys)
    if lo > hi:
        lo, hi = hi, lo
    got = {k[0]: sorted(v) for k, v in tree.range_scan((lo,), (hi,))}
    want = {k: sorted(v) for k, v in model.items() if lo <= k <= hi}
    assert got == want


def model_rids(model, lo, lo_inclusive, past):
    """The flat walk's model: ``sorted(rids)`` of each key in range, in
    key order."""
    out = []
    for key in sorted(model):
        if lo is not None and (key < lo or (key == lo and not lo_inclusive)):
            continue
        if past is not None and past(key):
            break
        out.extend(sorted(model[key]))
    return out


bounds = st.one_of(st.none(), keys)


@settings(max_examples=150)
@given(st.lists(st.tuples(keys, rids)), bounds, st.booleans(), bounds,
       st.booleans())
def test_flat_walk_matches_model(pairs, lo, lo_inclusive, hi, hi_inclusive):
    """Every bound and inclusivity, duplicate keys (one key, many rids),
    ranges over many order-4 leaves."""
    tree = BPlusTree(order=4)
    model = defaultdict(list)
    for key, rid in pairs:
        tree.insert((key,), rid)
        model[(key,)].append(rid)
    lo_key = None if lo is None else (lo,)
    if hi is None:
        past = None
    elif hi_inclusive:
        past = lambda key: key > (hi,)
    else:
        past = lambda key: key >= (hi,)
    assert tree.rids(lo_key, lo_inclusive, past) == \
        model_rids(model, lo_key, lo_inclusive, past)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9), rids)),
       bounds, st.integers(0, 12), st.booleans())
def test_flat_walk_composite_first_column_bound(triples, lo, hi,
                                                hi_inclusive):
    """A composite key under a bound on its first column: a one-column
    lower bound sorts before every key sharing that column, and the walk
    stops at the first key whose first column passes ``hi``."""
    tree = BPlusTree(order=4)
    model = defaultdict(list)
    for a, b, rid in triples:
        tree.insert((a, b), rid)
        model[(a, b)].append(rid)
    lo_key = None if lo is None else (lo,)
    past = ((lambda key: key[0] > hi) if hi_inclusive
            else (lambda key: key[0] >= hi))
    got = tree.rids(lo_key, True, past)
    assert got == model_rids(model, lo_key, True, past)
    # The same rids range_scan yields, flattened.
    scanned = []
    for key, key_rids in tree.range_scan(lo_key, None):
        if past(key):
            break
        scanned.extend(sorted(key_rids))
    assert got == scanned


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 30), rids)),
       st.integers(0, 6))
def test_flat_walk_prefix_match(triples, a):
    """A key prefix as both bounds: every key that starts with it."""
    tree = BPlusTree(order=4)
    model = defaultdict(list)
    for first, second, rid in triples:
        tree.insert((first, second), rid)
        model[(first, second)].append(rid)
    got = tree.rids((a,), True, lambda key: key[:1] != (a,))
    assert got == [rid for key in sorted(model) if key[0] == a
                   for rid in sorted(model[key])]


class BTreeMachine(RuleBasedStateMachine):
    """Stateful test: arbitrary interleavings of insert/delete."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model = defaultdict(list)

    @rule(key=keys, rid=rids)
    def insert(self, key, rid):
        self.tree.insert((key,), rid)
        self.model[key].append(rid)

    @rule(key=keys, rid=rids)
    def delete(self, key, rid):
        expected = rid in self.model.get(key, [])
        assert self.tree.delete((key,), rid) is expected
        if expected:
            self.model[key].remove(rid)
            if not self.model[key]:
                del self.model[key]

    @rule(key=keys)
    def search(self, key):
        assert sorted(self.tree.search((key,))) == \
            sorted(self.model.get(key, []))

    @invariant()
    def structure_holds(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)

    @invariant()
    def iteration_sorted(self):
        listed = [k[0] for k, _ in self.tree.items()]
        assert listed == sorted(self.model.keys())


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(max_examples=25,
                                      stateful_step_count=40,
                                      deadline=None)
