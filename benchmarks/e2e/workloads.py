"""The four e2e workloads: cluster profile, sizes, transaction, checks.

Every workload is a closed loop *in sim time*: ``clients`` generator
clients in one OS process and one thread, each sending its next
statement only after the previous reply. A workload owns

* a **profile** — dotted ``ClusterConfig`` paths applied *set-if-present*
  (a flag a later simplification PR deletes is skipped and reported, so
  deleting ``network.enabled`` needs no benchmark edit);
* ``build(seed, smoke)`` — cluster, tenants, bulk load;
* ``txn(world, client)`` — one transaction through ``Connection``;
* ``check(world)`` — the correctness gate on the final state.

Keys are drawn so that no two clients of one database ever touch the
same row. With replicated writes, two clients updating one row can
lock its replicas in opposite orders; that distributed deadlock is only
broken by the 5 sim-s lock-wait timeout, which would make ``failed``
non-zero on a few seeds and put 5 s outliers into p99. Contention is
measured by the sim-time ``BENCH_*`` files, not here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster import ClusterConfig, ClusterController
from repro.sim import Simulator
from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL
from repro.workloads.tpcw import MIXES, TpcwDatabase, TpcwScale
from repro.workloads.tpcw.schema import TPCW_DDL
from repro.workloads.tpcw.transactions import TpcwSession

SELECT_KV = "SELECT v FROM kv WHERE k = ?"
UPDATE_KV = "UPDATE kv SET v = v + 1 WHERE k = ?"

#: The configuration we would actually run (north-star 3): every
#: optional subsystem on at once.
PROD_PROFILE = {
    "replication_factor": 3,
    "network.enabled": True,
    "network.latency_s": 0.0005,
    "network.jitter_s": 0.0001,
    "network.drop_probability": 0.0,
    "consensus_enabled": True,
    "consensus.replicas": 3,
    "admission_control": True,
    "lazy_tenant_state": True,
}

MANY_TENANTS_PROFILE = {
    "replication_factor": 2,
    "lock_wait_timeout_s": 2.0,
    "admission_control": True,
    "lazy_tenant_state": True,
    "lazy_engine_ddl": True,
    "max_resident_tenant_logs": 64,
    "metrics_resident_tenants": 64,
    "admission.max_resident_buckets": 256,
}


def apply_profile(config: Any, profile: Dict[str, Any]) -> List[str]:
    """Set each dotted path that exists on ``config``; return the rest."""
    skipped = []
    for path, value in profile.items():
        *parents, leaf = path.split(".")
        target = config
        for part in parents:
            target = getattr(target, part, None)
        if target is None or not hasattr(target, leaf):
            skipped.append(path)
        else:
            setattr(target, leaf, value)
    return skipped


@dataclass
class Client:
    """One closed-loop generator client."""

    cid: int
    db: str
    rng: SeededRNG
    conn: Any = None
    session: Any = None
    zipf: Any = None
    key: int = 0
    #: Span id of the open transaction (traced run only).
    txn_span: Optional[int] = None


@dataclass
class World:
    """One built cluster plus what the checks need to know about it."""

    sim: Simulator
    controller: ClusterController
    clients: List[Client]
    #: db -> tables whose replicas must agree at the end.
    tables: Dict[str, Sequence[str]]
    profile_skipped: List[str]
    #: Sim seconds clients wait before their first statement (lets the
    #: bootstrap election settle when the control plane is replicated).
    settle_s: float = 0.0
    #: TPC-W: db -> its generated data set.
    datasets: Dict[str, Any] = field(default_factory=dict)
    #: KV workloads: keys per client stripe.
    stripe: int = 0
    #: Wraps every connection the clients open (the traced run passes
    #: the span recorder here).
    wrap_conn: Any = None

    def connect(self, client: Client):
        conn = self.controller.connect(client.db)
        return self.wrap_conn(conn, client) if self.wrap_conn else conn


def _cluster(profile: Dict[str, Any], machines: int, seed: int
             ) -> Tuple[Simulator, ClusterController, List[str]]:
    sim = Simulator()
    config = ClusterConfig()
    skipped = apply_profile(config, dict(
        profile, **{"network.seed": seed, "consensus.seed": seed}))
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    return sim, controller, skipped


class Workload:
    name = ""
    why = ""
    profile: Dict[str, Any] = {}
    think_s = 0.01
    #: Per client: transactions before the measured phase (fills plan
    #: caches, materialises lazy state), and transactions that make up
    #: the *exact window* the sim-time statistics are taken over.
    warm_txns = 20
    exact_txns = 100
    #: UPDATE statements per committed transaction (KV conservation).
    updates_per_txn = 0

    def build(self, seed: int, smoke: bool) -> World:
        raise NotImplementedError

    def open(self, world: World, client: Client) -> None:
        """Called once per client before its first transaction."""
        client.conn = world.connect(client)

    def txn(self, world: World, client: Client) -> Generator:
        raise NotImplementedError

    def close(self, world: World, client: Client) -> None:
        client.conn.close()

    def check(self, world: World, updates_committed: int) -> List[str]:
        problems = replica_divergence(world)
        if self.updates_per_txn:
            total = kv_sum(world)
            if total != updates_committed:
                problems.append(
                    f"KV conservation: SUM(v)={total} but "
                    f"{updates_committed} updates committed")
        return problems


class TpcwShopping(Workload):
    name = "tpcw_shopping"
    why = ("the paper's Fig. 2 on the default ClusterConfig: engine-bound "
           "(planner/executor/locks/storage), zero fabric messages")
    profile = {"replication_factor": 2}
    think_s = 0.05
    warm_txns = 30
    exact_txns = 650

    def build(self, seed: int, smoke: bool) -> World:
        n_dbs, ebs = 4, 4
        scale = TpcwScale(items=100 if smoke else 1000, emulated_browsers=ebs)
        sim, controller, skipped = _cluster(self.profile, 4, seed)
        replicas = controller.config.replication_factor
        datasets, clients, tables = {}, [], {}
        for i in range(n_dbs):
            db = f"tpcw{i}"
            data = TpcwDatabase(scale, seed=seed * 100 + i)
            controller.create_database(db, TPCW_DDL, replicas=replicas)
            data.load_into(controller, db)
            datasets[db] = data
            tables[db] = list(data.rows)
            for c in range(ebs):
                clients.append(Client(
                    cid=len(clients), db=db,
                    rng=SeededRNG(seed).fork(f"eb-{db}-{c}"), key=c))
        return World(sim, controller, clients, tables, skipped,
                     datasets=datasets)

    def open(self, world: World, client: Client) -> None:
        super().open(world, client)
        data = world.datasets[client.db]
        client.session = TpcwSession(
            client.conn, data, client.rng,
            client.rng.randint(1, data.scale.customers), client.key + 1)

    def txn(self, world: World, client: Client) -> Generator:
        name = MIXES["shopping"].choose(client.rng)
        yield from getattr(client.session, name)()


class KvProd(Workload):
    """Shared build of the two production-profile workloads."""

    profile = PROD_PROFILE
    think_s = 0.01
    warm_txns = 20
    n_dbs, clients_per_db = 4, 8

    def build(self, seed: int, smoke: bool) -> World:
        keys = 800 if smoke else 8000
        sim, controller, skipped = _cluster(self.profile, 4, seed)
        replicas = controller.config.replication_factor
        clients, tables = [], {}
        for i in range(self.n_dbs):
            db = f"kv{i}"
            # An SLA loose enough that admission never rejects.
            controller.create_database(
                db, KV_DDL, replicas=replicas,
                sla=Sla(min_throughput_tps=2000.0,
                        max_rejected_fraction=0.05))
            controller.bulk_load(db, "kv", [(k, 0) for k in range(keys)])
            tables[db] = ["kv"]
            for c in range(self.clients_per_db):
                clients.append(Client(
                    cid=len(clients), db=db,
                    rng=SeededRNG(seed).fork(f"kv-{db}-{c}"), key=c))
        start = getattr(controller, "start_failure_detector", None)
        if start is None:
            skipped.append("start_failure_detector")
        else:
            start()
        return World(sim, controller, clients, tables, skipped, settle_s=1.0,
                     stripe=keys // self.clients_per_db)

    def _key(self, world: World, client: Client) -> int:
        # Uniform over the client's own stripe of the key space.
        return (client.rng.randint(0, world.stripe - 1)
                * self.clients_per_db + client.key)


class KvProdWrite(KvProd):
    name = "kv_prod_write"
    why = ("fabric+consensus+admission+detector on, 2 SELECT + 2 UPDATE: "
           "kernel/controller/fabric/2PC/consensus-bound commit path")
    exact_txns = 85
    updates_per_txn = 2

    def txn(self, world: World, client: Client) -> Generator:
        conn = client.conn
        for _ in range(2):
            yield conn.execute(SELECT_KV, (self._key(world, client),))
        for _ in range(2):
            yield conn.execute(UPDATE_KV, (self._key(world, client),))
        yield conn.commit()


class KvProdRead(KvProd):
    name = "kv_prod_read"
    why = ("same cluster and profile, 3 SELECT + commit: statement RPCs "
           "and read-only release but no write fan-out, PREPARE or "
           "decision log")
    exact_txns = 380

    def txn(self, world: World, client: Client) -> Generator:
        conn = client.conn
        for _ in range(3):
            yield conn.execute(SELECT_KV, (self._key(world, client),))
        yield conn.commit()


class ManyTenants(Workload):
    name = "many_tenants"
    why = ("20 000 staged tenants, Zipf-hot 2 % subset larger than the "
           "resident-state caps, churn: routing/admission/lazy-state/"
           "paging do the work")
    profile = MANY_TENANTS_PROFILE
    think_s = 0.02
    warm_txns = 40
    exact_txns = 400
    updates_per_txn = 1
    n_clients = 32
    churn_period_s = 0.5

    def build(self, seed: int, smoke: bool) -> World:
        tenants = 1000 if smoke else 20000
        hot = tenants // 50
        sim, controller, skipped = _cluster(self.profile, 12, seed)
        replicas = controller.config.replication_factor
        sla = Sla(min_throughput_tps=1000.0, max_rejected_fraction=0.05)
        for i in range(tenants):
            # Every 4th tenant buys an SLA; the rest ride the default rate.
            controller.create_database(
                _tenant(i), KV_DDL, replicas=replicas,
                sla=sla if i % 4 == 0 else None)
        tables = {}
        rows = [(k, 0) for k in range(self.n_clients)]
        for i in range(hot):
            controller.bulk_load(_tenant(i), "kv", rows)
            tables[_tenant(i)] = ["kv"]
        rng = SeededRNG(seed).fork("many-tenants")
        clients = []
        for c in range(self.n_clients):
            crng = rng.fork(f"client-{c}")
            clients.append(Client(
                cid=c, db="", rng=crng, key=c,
                zipf=ZipfGenerator(hot, 1.1, crng.fork("zipf"))))
        sim.process(self._churn(controller, rng.fork("churn"), hot, tenants,
                                replicas), name="tenant-churn")
        return World(sim, controller, clients, tables, skipped)

    def _churn(self, controller, rng, hot, tenants, replicas) -> Generator:
        """One cold-tenant drop + one create per period."""
        next_new = tenants
        while True:
            yield controller.sim.timeout(self.churn_period_s)
            victim = _tenant(rng.randint(hot, tenants - 1))
            if controller.replica_map.has(victim):
                controller.drop_database(victim)
            controller.create_database(_tenant(next_new), KV_DDL,
                                       replicas=replicas)
            next_new += 1

    def open(self, world: World, client: Client) -> None:
        pass  # a fresh connection (one routing lookup) per transaction

    def close(self, world: World, client: Client) -> None:
        pass

    def txn(self, world: World, client: Client) -> Generator:
        client.db = _tenant(client.zipf.sample_rank() - 1)
        conn = world.connect(client)
        try:
            yield conn.execute(SELECT_KV, (client.key,))
            yield conn.execute(UPDATE_KV, (client.key,))
            yield conn.commit()
        finally:
            conn.close()


def _tenant(i: int) -> str:
    return f"t{i:06d}"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (TpcwShopping(), KvProdWrite(), KvProdRead(),
                        ManyTenants())
}


# -- final-state checks ----------------------------------------------------------


def table_checksums(world: World) -> Dict[str, Dict[str, int]]:
    """db -> replica -> crc32 over the sorted rows of the db's tables."""
    out: Dict[str, Dict[str, int]] = {}
    controller = world.controller
    for db, tables in world.tables.items():
        per_replica = {}
        for name in controller.replica_map.replicas(db):
            engine = controller.machines[name].engine
            crc = 0
            for table in tables:
                rows = engine.snapshot_table(db, table)
                try:
                    rows.sort()
                except TypeError:  # NULLs do not order
                    rows.sort(key=repr)
                crc = zlib.crc32(repr(rows).encode(), crc)
            per_replica[name] = crc
        out[db] = per_replica
    return out


def replica_divergence(world: World) -> List[str]:
    return [f"replicas of {db} diverged: {crcs}"
            for db, crcs in table_checksums(world).items()
            if len(set(crcs.values())) != 1]


def kv_sum(world: World) -> int:
    controller = world.controller
    total = 0
    for db in world.tables:
        first = controller.replica_map.replicas(db)[0]
        rows = controller.machines[first].engine.snapshot_table(db, "kv")
        total += sum(row[1] for row in rows)
    return total
