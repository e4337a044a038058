"""Differential: the record ring of ``Tracer`` against the object ring.

The oracle (``tests/oracles/trace_ring.py``) stores one ``TraceEvent``
per emit; production stores a flat record, derives ``seq`` from the
ring position and builds events on read. Both are fed one emission
script — capacities 1–8 (so most scripts wrap, some many times), kinds,
databases, transactions and machines from small domains, empty and
non-empty ``**extra`` in drawn keyword order, and a clock that often
stays on one instant — and must agree on ``len``, ``dropped``, every
``seq``, ``events()`` under every filter combination (extras compared in
order, not only as dicts) and the bytes of ``dump_jsonl``.

``test_mutants_are_caught`` requires the differential to find each of
three broken rings: ``seq`` off by one once the ring has wrapped, the
extras stored in sorted rather than emission order, and the ``db``
filter applied to the ``machine`` field.
"""

import io
import itertools

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.analysis.trace import Tracer
from tests.oracles import trace_ring

KINDS = ("prepare", "committed", "fault")
DBS = ("d0", "d1")
TXNS = (1, 2, 3)
MACHINES = ("m0", "m1")

FILTERS = [dict(kind=k, db=d, txn=t, machine=m)
           for k, d, t, m in itertools.product(
               (None,) + KINDS, (None,) + DBS, (None,) + TXNS,
               (None,) + MACHINES)]

values = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                   st.sampled_from(["x", "y"]),
                   st.floats(0.0, 2.0, allow_nan=False),
                   st.lists(st.integers(0, 3), max_size=2))
extras = st.lists(st.tuples(st.sampled_from(["term", "at", "reason",
                                             "width", "note"]), values),
                  max_size=3, unique_by=lambda pair: pair[0]).map(dict)
emits = st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.25]),
                  st.sampled_from(KINDS), st.sampled_from(DBS + (None,)),
                  st.sampled_from(TXNS + (None,)),
                  st.sampled_from(MACHINES + (None,)), extras)
cases = st.tuples(st.integers(1, 8), st.lists(emits, max_size=24))


def replay(cls, capacity, script):
    now = [0.0]
    tracer = cls(capacity=capacity, clock=lambda: now[0])
    for dt, kind, db, txn, machine, extra in script:
        now[0] += dt
        tracer.emit(kind, db=db, txn=txn, machine=machine, **extra)
    return tracer


def observe(tracer):
    dump = io.StringIO()
    tracer.dump_jsonl(dump)
    return (len(tracer), tracer.dropped, [e.seq for e in tracer.events()],
            [[(e, list(e.extra.items())) for e in tracer.events(**f)]
             for f in FILTERS],
            dump.getvalue())


def diverges(cls, case):
    return observe(replay(cls, *case)) != \
        observe(replay(trace_ring.Tracer, *case))


@settings(max_examples=200, deadline=None)
@given(cases)
def test_records_read_back_as_the_object_ring(case):
    assert observe(replay(Tracer, *case)) == \
        observe(replay(trace_ring.Tracer, *case))


class SeqOffAfterWrap(Tracer):
    def events(self, *args, **filters):
        out = super().events(*args, **filters)
        for event in out:
            event.seq += self.dropped > 0
        return out


class SortedNames(Tracer):
    def emit(self, kind, db=None, txn=None, machine=None, **extra):
        super().emit(kind, db, txn, machine, **dict(sorted(extra.items())))


class DbFilterOnMachine(Tracer):
    def events(self, kind=None, db=None, txn=None, machine=None):
        return super().events(kind, machine, txn, db)


def test_mutants_are_caught():
    for mutant in (SeqOffAfterWrap, SortedNames, DbFilterOnMachine):
        case = find(cases, lambda c: diverges(mutant, c),
                    settings=settings(max_examples=2000, deadline=None,
                                      derandomize=True, database=None,
                                      phases=[Phase.generate]))
        assert not diverges(Tracer, case)
