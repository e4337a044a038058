"""Differential: bare-rid leaf slots against the list-slot tree.

A production leaf slot holds the rid itself while its key has one and a
list from the second rid on; the oracle (``tests/oracles/btree_lists.py``)
holds a list in every slot. Both replay one script of ``insert``,
``extend`` and ``delete`` over a small key and rid domain, so keys often
gain a second rid, go 2 → 1 → 0 rids, and are asked to delete a rid a
bare slot does not hold. After every step the two must agree on what the
step returned, on the tree node for node (``shape`` with slots read as
lists, leaf chain, ``height``, ``len``), on which slots hold one rid, and
on ``search``, ``range_scan`` and ``rids`` (with and without ``past``)
over the script's queries.

``test_mutants_are_caught`` requires the differential to find each of
three broken trees: ``rids`` leaving a multi-rid slot unsorted, a delete
of another rid from a bare slot dropping the key, and ``extend``'s
same-key path overwriting the held rid instead of pairing it.

A one-column tree (``width=1``) stores each key's value, not its 1-tuple,
and must answer the same script as the tuple-keyed oracle: every step's
return, the tree node for node with its keys wrapped back into 1-tuples,
and every query. ``test_one_column_mutants_are_caught`` requires the
differential to find three broken unwrappings: ``search`` comparing the
stored value with a tuple (it always misses), ``rids`` handing ``past``
the bare value, and ``_split_leaf`` storing a wrapped separator.
"""

import inspect
import textwrap

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.engine import btree
from repro.engine.btree import BPlusTree
from tests.oracles import btree_lists
from tests.property.test_btree_extend_property import state

DOMAIN = [(k,) for k in range(25)]
keys = st.sampled_from(DOMAIN)
rids = st.integers(min_value=0, max_value=4)
bounds = st.one_of(st.none(), keys)

ops = st.one_of(
    st.tuples(st.just("insert"), keys, rids),
    st.tuples(st.just("delete"), keys, rids),
    st.tuples(st.just("extend"),
              st.tuples(st.lists(st.tuples(keys, rids), max_size=12),
                        st.booleans())))
queries = st.tuples(bounds, bounds, st.booleans(), st.booleans())
cases = st.tuples(st.integers(min_value=4, max_value=6),
                  st.lists(ops, max_size=30),
                  st.lists(queries, min_size=1, max_size=3))


def apply(tree, op):
    """Run one step; its return value is part of what is compared."""
    if op[0] == "extend":
        pairs, ascending = op[1]
        return tree.extend(iter(sorted(pairs) if ascending else pairs))
    return getattr(tree, op[0])(op[1], op[2])


def one_rid(tree):
    """Per slot in key order: does its key hold exactly one rid?"""
    node, out = tree._leftmost_leaf(), []
    while node is not None:
        out.extend(type(slot) is not list or len(slot) == 1
                   for slot in node.values)
        node = node.next_leaf
    return out


def answers(tree, queries):
    out = [tree.search(key) for key in DOMAIN]
    for lo, hi, lo_inclusive, hi_inclusive in queries:
        out.append(list(tree.range_scan(lo, hi, lo_inclusive,
                                        hi_inclusive)))
        out.append(tree.rids(lo, lo_inclusive))
        if hi is not None:
            past = ((lambda key: key > hi) if hi_inclusive
                    else (lambda key: key >= hi))
            out.append(tree.rids(lo, lo_inclusive, past))
    return out


def observe(tree, queries):
    return state(tree), one_rid(tree), answers(tree, queries)


def diverges(cls, case, width=0):
    """Does ``cls`` part from the oracle on ``case``? A comparison a broken
    unwrapping makes between a value and a tuple raises ``TypeError``,
    which the oracle, over integer keys, never does."""
    order, script, queries = case
    got = cls(order=order, width=width)
    want = btree_lists.BPlusTree(order=order)
    try:
        for op in script:
            if apply(got, op) != apply(want, op):
                return True
            if observe(got, queries) != observe(want, queries):
                return True
    except TypeError:
        return True
    return False


def replay(case, width):
    order, script, queries = case
    tree = BPlusTree(order=order, width=width)
    oracle = btree_lists.BPlusTree(order=order)
    for op in script:
        assert apply(tree, op) == apply(oracle, op)
        tree.check_invariants()
        assert observe(tree, queries) == observe(oracle, queries)


@settings(max_examples=300, deadline=None)
@given(cases)
def test_bare_slots_answer_as_the_list_tree(case):
    replay(case, width=0)


@settings(max_examples=300, deadline=None)
@given(cases)
def test_one_column_tree_answers_as_the_tuple_tree(case):
    replay(case, width=1)


def mutant(method, old, new):
    """``BPlusTree`` with one line of ``method`` replaced."""
    source = textwrap.dedent(inspect.getsource(getattr(BPlusTree, method)))
    assert source.count(old) == 1, (method, old)
    namespace = dict(vars(btree))
    exec(source.replace(old, new), namespace)
    return type(f"Mutant_{method}", (BPlusTree,), {method: namespace[method]})


MUTANTS = (
    mutant("rids", "out.extend(sorted(slot))", "out.extend(slot)"),
    mutant("_delete", "elif slot != rid:", "elif False:"),
    mutant("extend", "_add(leaf.values, -1, rid)", "leaf.values[-1] = rid"),
)


ONE_COLUMN_MUTANTS = (
    mutant("search", "leaf.keys[idx] == key", "leaf.keys[idx] == (key,)"),
    mutant("rids", "past((value,))", "past(value)"),
    mutant("_split_leaf", "return right.keys[0], right",
           "return (right.keys[0],), right"),
)


def caught(mutants, width):
    for cls in mutants:
        case = find(cases, lambda c: diverges(cls, c, width),
                    settings=settings(max_examples=2000, deadline=None,
                                      derandomize=True, database=None,
                                      phases=[Phase.generate]))
        assert not diverges(BPlusTree, case, width)


def test_mutants_are_caught():
    caught(MUTANTS, width=0)


def test_one_column_mutants_are_caught():
    caught(ONE_COLUMN_MUTANTS, width=1)
