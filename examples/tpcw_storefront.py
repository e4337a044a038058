"""A TPC-W storefront on the platform — the paper's benchmark workload.

Hosts two bookstore databases on a replicated cluster and drives emulated
browsers through the shopping mix, then reports throughput, the
interaction breakdown, and buffer-pool behaviour per machine.

Run:  python examples/tpcw_storefront.py
"""

import zlib

from repro.cluster import (ClusterConfig, ClusterController, ReadOption,
                           WritePolicy)
from repro.harness import format_table
from repro.sim import Simulator
from repro.workloads.tpcw import MIXES, TpcwClient, TpcwDatabase, TpcwScale
from repro.workloads.tpcw.schema import TPCW_DDL

DURATION_S = 30.0
CLIENTS_PER_STORE = 6


def main():
    sim = Simulator()
    config = ClusterConfig(read_option=ReadOption.OPTION_1,
                           write_policy=WritePolicy.CONSERVATIVE)
    config.machine.engine.buffer_pool_pages = 512
    controller = ClusterController(sim, config)
    controller.add_machines(4)

    stores = {}
    for store in ("books-west", "books-east"):
        data = TpcwDatabase(TpcwScale(items=800,
                                      emulated_browsers=CLIENTS_PER_STORE),
                            seed=zlib.crc32(store.encode()) % 1000)
        controller.create_database(store, TPCW_DDL, replicas=2)
        data.load_into(controller, store)
        stores[store] = data
        print(f"loaded {store}: ~{data.estimated_mb():.1f} MB generated "
              f"({data.scale.items} items, {data.scale.customers} customers)")

    clients = []
    for store, data in stores.items():
        for c in range(CLIENTS_PER_STORE):
            client = TpcwClient(controller, store, data, MIXES["shopping"],
                                client_id=c, seed=7 * c + 1,
                                think_time_s=0.1)
            clients.append(client)
            proc = sim.process(client.run(until=DURATION_S))
            proc.defused = True

    print(f"\nrunning the shopping mix for {DURATION_S:.0f} simulated "
          f"seconds with {len(clients)} emulated browsers...")
    sim.run(until=DURATION_S)

    metrics = controller.metrics
    print(f"\ncommitted transactions : {metrics.total_committed()}")
    print(f"throughput             : "
          f"{metrics.throughput(DURATION_S):.1f} tps")
    print(f"deadlocks              : {metrics.total_deadlocks()}")

    by_interaction = {}
    for client in clients:
        for name, count in client.stats.by_interaction.items():
            by_interaction[name] = by_interaction.get(name, 0) + count
    total = sum(by_interaction.values())
    rows = [[name, count, f"{100.0 * count / total:.1f}%"]
            for name, count in
            sorted(by_interaction.items(), key=lambda kv: -kv[1])]
    print("\ninteraction breakdown:")
    print(format_table(["interaction", "count", "share"], rows))

    rows = []
    for name, machine in sorted(controller.machines.items()):
        stats = machine.engine.buffer_pool.stats
        rows.append([name,
                     len(controller.replica_map.hosted_on(name)),
                     stats.accesses, f"{stats.hit_rate:.3f}",
                     machine.engine.locks.stats.deadlocks])
    print("\nper-machine view:")
    print(format_table(
        ["machine", "databases", "page accesses", "hit rate", "deadlocks"],
        rows))


if __name__ == "__main__":
    main()
