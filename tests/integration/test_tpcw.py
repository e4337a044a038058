"""Integration tests for the TPC-W workload implementation."""

import pytest

from repro.cluster import ReadOption, WritePolicy
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from repro.workloads.tpcw import MIXES, TpcwClient, TpcwDatabase, TpcwScale
from repro.workloads.tpcw.mixes import INTERACTIONS, WRITE_INTERACTIONS
from repro.workloads.tpcw.schema import TPCW_DDL, TPCW_TABLES
from tests.conftest import make_cluster, read_table


@pytest.fixture(scope="module")
def data():
    return TpcwDatabase(TpcwScale(items=200, emulated_browsers=4), seed=5)


def build_tpcw_cluster(sim, data, **kwargs):
    controller = make_cluster(sim, machines=3, **kwargs)
    controller.create_database("shop", TPCW_DDL, replicas=2)
    data.load_into(controller, "shop")
    return controller


class TestDatagen:
    def test_cardinalities_follow_ratios(self, data):
        scale = data.scale
        assert len(data.rows["item"]) == scale.items
        assert len(data.rows["author"]) == scale.authors
        assert len(data.rows["customer"]) == scale.customers
        assert len(data.rows["orders"]) == scale.orders
        assert len(data.rows["address"]) == 2 * scale.customers

    def test_every_schema_table_generated(self, data):
        assert set(data.rows) == set(TPCW_TABLES)

    def test_referential_integrity(self, data):
        scale = data.scale
        author_ids = {r[0] for r in data.rows["author"]}
        for item in data.rows["item"]:
            assert item[2] in author_ids
        customer_ids = {r[0] for r in data.rows["customer"]}
        for order in data.rows["orders"]:
            assert order[1] in customer_ids
        order_ids = {r[0] for r in data.rows["orders"]}
        for line in data.rows["order_line"]:
            assert line[0] in order_ids
            assert 1 <= line[2] <= scale.items

    def test_deterministic_given_seed(self):
        a = TpcwDatabase(TpcwScale(items=50), seed=9)
        b = TpcwDatabase(TpcwScale(items=50), seed=9)
        assert a.rows["item"] == b.rows["item"]

    def test_id_allocator_starts_after_data(self, data):
        assert data.ids.next_customer == data.scale.customers + 1
        assert data.ids.next_order == data.scale.orders + 1

    def test_estimated_mb_positive(self, data):
        assert data.estimated_mb() > 0


class TestMixes:
    def test_weights_normalized(self):
        for mix in MIXES.values():
            assert sum(w for _, w in mix.weights) == pytest.approx(1.0)

    def test_all_interactions_present(self):
        for mix in MIXES.values():
            assert {k for k, _ in mix.weights} == set(INTERACTIONS)

    def test_write_fraction_ordering(self):
        browsing, shopping, ordering = (
            sum(w for name, w in MIXES[mix].weights
                if name in WRITE_INTERACTIONS)
            for mix in ("browsing", "shopping", "ordering"))
        assert browsing < shopping < ordering
        assert browsing == pytest.approx(0.044, abs=0.01)
        assert ordering == pytest.approx(0.494, abs=0.02)

    def test_choose_follows_weights(self):
        rng = SeededRNG(1)
        picks = [MIXES["browsing"].choose(rng) for _ in range(2000)]
        # Home is 29 % of the browsing mix.
        assert 0.24 < picks.count("home") / 2000 < 0.34


class TestInteractions:
    def test_every_interaction_runs(self, sim, data):
        """Each of the 14 interactions completes against the cluster."""
        controller = build_tpcw_cluster(sim, data)
        from repro.workloads.tpcw.transactions import TpcwSession

        conn = controller.connect("shop")
        session = TpcwSession(conn, data, SeededRNG(3), customer_id=1,
                              cart_id=1)
        completed = []

        def run_all():
            for name in INTERACTIONS:
                yield from getattr(session, name)()
                completed.append(name)

        proc = sim.process(run_all())
        sim.run()
        assert proc.ok, proc.value
        assert completed == INTERACTIONS

    def test_buy_confirm_creates_order(self, sim, data):
        controller = build_tpcw_cluster(sim, data)
        from repro.workloads.tpcw.transactions import TpcwSession

        conn = controller.connect("shop")
        session = TpcwSession(conn, data, SeededRNG(4), customer_id=2,
                              cart_id=2)
        before = data.ids.next_order

        def scenario():
            yield from session.shopping_cart()
            yield from session.buy_confirm()

        proc = sim.process(scenario())
        sim.run()
        assert proc.ok, proc.value
        primary = controller.replica_map.replicas("shop")[0]
        rows = read_table(controller, primary, "shop",
                          f"SELECT o_id FROM orders WHERE o_id = {before}")
        assert rows == [(before,)]
        # Cart emptied afterwards.
        cart = read_table(controller, primary, "shop",
                          "SELECT COUNT(*) FROM shopping_cart_line "
                          "WHERE scl_sc_id = 2")
        assert cart == [(0,)]

    def test_customer_registration_switches_identity(self, sim, data):
        controller = build_tpcw_cluster(sim, data)
        from repro.workloads.tpcw.transactions import TpcwSession

        conn = controller.connect("shop")
        session = TpcwSession(conn, data, SeededRNG(5), customer_id=1,
                              cart_id=3)

        def scenario():
            yield from session.customer_registration()

        proc = sim.process(scenario())
        sim.run()
        assert proc.ok
        assert session.customer_id > data.scale.customers


class TestClientLoop:
    def test_client_runs_interaction_budget(self, sim, data):
        controller = build_tpcw_cluster(sim, data)
        client = TpcwClient(controller, "shop", data, MIXES["shopping"],
                            client_id=0, seed=1, think_time_s=0.01)
        proc = sim.process(client.run(interactions=25))
        sim.run()
        assert proc.ok
        stats = proc.value
        assert stats.completed + stats.deadlocks + stats.rejections + \
            stats.other_aborts == 25

    def test_concurrent_clients_keep_replicas_consistent(self, sim, data):
        controller = build_tpcw_cluster(
            sim, data, read_option=ReadOption.OPTION_2,
            write_policy=WritePolicy.CONSERVATIVE)
        clients = [TpcwClient(controller, "shop", data, MIXES["ordering"],
                              client_id=i, seed=20 + i, think_time_s=0.005)
                   for i in range(4)]
        for client in clients:
            sim.process(client.run(interactions=20))
        sim.run()
        replicas = controller.replica_map.replicas("shop")
        for table in ("orders", "order_line", "item", "customer",
                      "shopping_cart_line", "cc_xacts"):
            counts = {read_table(controller, m, "shop",
                                 f"SELECT COUNT(*) FROM {table}")[0][0]
                      for m in replicas}
            assert len(counts) == 1, f"{table} diverged: {counts}"

    def test_run_requires_bound(self, sim, data):
        controller = build_tpcw_cluster(sim, data)
        client = TpcwClient(controller, "shop", data, MIXES["shopping"],
                            client_id=0)
        with pytest.raises(ValueError):
            next(client.run())
