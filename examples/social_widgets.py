"""Many small applications sharing one cluster — the paper's motivating
scenario (Facebook apps / Google Gadgets / Yahoo Widgets).

Creates a cluster hosting a dozen tiny widget databases with zipf-skewed
sizes and SLAs, drives mixed read/write traffic against all of them,
kills a machine mid-run, and shows Algorithm 1 re-replicating the lost
databases while the widgets keep serving.

Run:  python examples/social_widgets.py
"""

from repro.cluster import (ClusterConfig, ClusterController, ReadOption,
                           RecoveryManager, WritePolicy)
from repro.cluster.controller import TransactionAborted
from repro.harness import format_table
from repro.sim import Simulator
from repro.sim.rng import SeededRNG, ZipfGenerator

WIDGET_DDL = [
    "CREATE TABLE state ("
    "  user_id INTEGER NOT NULL,"
    "  item_key VARCHAR(30) NOT NULL,"
    "  value VARCHAR(100),"
    "  version INTEGER,"
    "  PRIMARY KEY (user_id, item_key))",
]

N_WIDGETS = 12
DURATION_S = 60.0
FAILURE_AT_S = 20.0


def main():
    sim = Simulator()
    config = ClusterConfig(read_option=ReadOption.OPTION_1,
                           write_policy=WritePolicy.CONSERVATIVE)
    config.machine.copy_bytes_factor = 5000.0  # paper-scale copy times
    controller = ClusterController(sim, config)
    controller.add_machines(6)

    rng = SeededRNG(2024)
    size_zipf = ZipfGenerator(32, 1.0, rng.fork("sizes"))

    print(f"creating {N_WIDGETS} widget databases...")
    for w in range(N_WIDGETS):
        db = f"widget{w:02d}"
        users = int(size_zipf.sample_in_range(50, 400))
        controller.create_database(db, WIDGET_DDL, replicas=2)
        rows = [(u, f"pref{p}", rng.string(20), 0)
                for u in range(users) for p in range(3)]
        controller.bulk_load(db, "state", rows)

    recovery = RecoveryManager(controller, threads=2)
    recovery.start()

    def widget_client(db, client_id, users):
        client_rng = rng.fork(f"{db}-{client_id}")
        conn = controller.connect(db)
        while sim.now < DURATION_S:
            user = client_rng.randint(0, users - 1)
            try:
                yield conn.execute(
                    "SELECT value, version FROM state "
                    "WHERE user_id = ? AND item_key = ?",
                    (user, f"pref{client_rng.randint(0, 2)}"))
                if client_rng.random() < 0.3:
                    yield conn.execute(
                        "UPDATE state SET version = version + 1 "
                        "WHERE user_id = ? AND item_key = ?",
                        (user, f"pref{client_rng.randint(0, 2)}"))
                yield conn.commit()
            except TransactionAborted:
                pass
            yield sim.timeout(client_rng.expovariate(1.0 / 0.2))

    for w in range(N_WIDGETS):
        db = f"widget{w:02d}"
        for c in range(2):
            proc = sim.process(widget_client(db, c, 50))
            proc.defused = True

    victim = max(controller.machines,
                 key=lambda m: len(controller.replica_map.hosted_on(m)))
    lost_dbs = len(controller.replica_map.hosted_on(victim))

    def chaos():
        yield sim.timeout(FAILURE_AT_S)
        print(f"\nt={sim.now:.0f}s: machine {victim} fails "
              f"({lost_dbs} databases lose a replica)")
        controller.fail_machine(victim)

    sim.process(chaos())
    sim.run(until=DURATION_S)

    print(f"\nt={sim.now:.0f}s: run complete\n")
    rows = []
    for db in sorted(controller.metrics.per_db):
        counters = controller.metrics.per_db[db]
        rows.append([db, controller.replica_map.replica_count(db),
                     counters.committed, counters.rejected,
                     counters.deadlocks,
                     f"{counters.rejected_fraction():.4f}"])
    print(format_table(
        ["widget", "replicas", "committed", "rejected", "deadlocks",
         "rejected fraction"], rows))

    print("\nrecovery log:")
    for record in recovery.records:
        status = "ok" if record.succeeded else "FAILED"
        print(f"  {record.db}: {record.source} -> {record.target} "
              f"in {record.duration:.1f}s [{status}]")
    under = [db for db in controller.replica_map.databases()
             if controller.replica_map.replica_count(db) < 2]
    print(f"\nunder-replicated databases after recovery: {under or 'none'}")


if __name__ == "__main__":
    main()
