"""Differential: the interned-tuple replica map against the list-valued one.

Production ``ReplicaMap`` holds each placement as a tuple that every
database placed alike shares through an intern table (a count per
placement drops it when its last database leaves); the oracle
(``tests/oracles/replica_map_lists.py``) holds a private list per
database and mutates it in place. Both replay one script of
``add_database``, ``drop_database``, ``add_replica``, ``remove_machine``
and ``clear`` over a small database and machine domain, so placements
repeat, shrink to empty, and lose their primary. After every step the
two must agree on what the step returned or raised, and on
``replicas``, ``replicas_view``, ``replica_count``, ``hosted_on``,
``hosted_count``, ``primary_count`` and ``databases``. Production must
also hold equal placements as one object, and its intern table must hold
exactly the distinct live placements, each with the number of databases
holding it.

``test_mutants_are_caught`` requires the differential to find each of
three broken maps: ``remove_machine`` leaving the old tuple interned,
``add_replica`` bypassing the intern table, and ``drop_database`` never
releasing its placement.
"""

import inspect
import textwrap
from collections import Counter

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.cluster import replica_map
from repro.cluster.replica_map import ReplicaMap
from tests.oracles import replica_map_lists

DATABASES = [f"d{i}" for i in range(5)]
MACHINES = [f"m{i}" for i in range(4)]
dbs = st.sampled_from(DATABASES)
machines = st.sampled_from(MACHINES)

ops = st.one_of(
    # Duplicates allowed: both maps must reject the same placements.
    st.tuples(st.just("add_database"), dbs,
              st.lists(machines, max_size=4)),
    st.tuples(st.just("drop_database"), dbs),
    st.tuples(st.just("add_replica"), dbs, machines),
    st.tuples(st.just("remove_machine"), machines),
    st.tuples(st.just("clear")))
scripts = st.lists(ops, max_size=30)


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the raised type is part of the answer
        return "raised", type(exc)


def apply(rmap, op):
    return outcome(lambda: getattr(rmap, op[0])(*op[1:]))


def observe(rmap):
    return ([outcome(lambda: rmap.replicas(db)) for db in DATABASES],
            [outcome(lambda: list(rmap.replicas_view(db)))
             for db in DATABASES],
            [rmap.replica_count(db) for db in DATABASES],
            [(rmap.hosted_on(m), rmap.hosted_count(m), rmap.primary_count(m))
             for m in MACHINES],
            rmap.databases(), rmap.database_count())


def interned(rmap):
    """Equal placements are one object, and the intern table holds
    exactly the live placements with the count of databases on each."""
    held = {db: rmap.replicas_view(db) for db in rmap.databases()}
    counts = Counter(held.values())
    if {placement: entry[1] for placement, entry
            in rmap._placements.items()} != counts:
        return False
    return all(type(placement) is tuple
               and placement is rmap._placements[placement][0]
               for placement in held.values())


def diverges(cls, script):
    got, want = cls(), replica_map_lists.ReplicaMap()
    for op in script:
        if apply(got, op) != apply(want, op):
            return True
        if observe(got) != observe(want) or not interned(got):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(scripts)
def test_interned_map_answers_as_the_list_map(script):
    rmap, oracle = ReplicaMap(), replica_map_lists.ReplicaMap()
    for op in script:
        assert apply(rmap, op) == apply(oracle, op)
        assert observe(rmap) == observe(oracle)
        assert interned(rmap)


def mutant(method, old, new):
    """``ReplicaMap`` with one line of ``method`` replaced."""
    source = textwrap.dedent(inspect.getsource(getattr(ReplicaMap, method)))
    assert source.count(old) == 1, (method, old)
    namespace = dict(vars(replica_map))
    exec(source.replace(old, new), namespace)
    return type(f"Mutant_{method}", (ReplicaMap,),
                {method: namespace[method]})


MUTANTS = (
    mutant("remove_machine", "self._release(replicas)", "pass"),
    mutant("add_replica", "self._intern(replicas + (machine,))",
           "replicas + (machine,)"),
    mutant("drop_database", "self._release(replicas)", "pass"),
)


def test_mutants_are_caught():
    for cls in MUTANTS:
        script = find(scripts, lambda s: diverges(cls, s),
                      settings=settings(max_examples=2000, deadline=None,
                                        derandomize=True, database=None,
                                        phases=[Phase.generate]))
        assert not diverges(ReplicaMap, script)
