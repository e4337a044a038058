"""Quickstart: the paper's two-call API in ~60 lines.

Creates a platform with two colos, creates a database with an SLA,
connects, and runs parameterized SQL transactions — the full stack
(system controller -> colo -> cluster -> replicated MiniSQL engines)
behind one facade.

Run:  python examples/quickstart.py
"""

from repro.platform import DataPlatform, DatabaseSpec
from repro.sla import Sla


def main():
    # Infrastructure: two colos with a pool of free machines each.
    platform = DataPlatform()
    platform.add_colo("us-west", free_machines=6, location=0.0)
    platform.add_colo("us-east", free_machines=6, location=30.0)

    # API call 1: create a database along with an associated SLA.
    platform.create_database(DatabaseSpec(
        name="guestbook",
        ddl=[
            "CREATE TABLE entries ("
            "  e_id INTEGER PRIMARY KEY,"
            "  author VARCHAR(30) NOT NULL,"
            "  message VARCHAR(200),"
            "  likes INTEGER)",
            "CREATE INDEX entries_author ON entries (author)",
        ],
        sla=Sla(min_throughput_tps=2.0, max_rejected_fraction=0.001),
        expected_size_mb=50.0,
        write_mix=0.3,
    ))

    # API call 2: connect and use it like any SQL database. Clients are
    # simulation processes; each statement/commit returns an event to
    # yield on (the simulated analogue of a blocking JDBC call).
    def client():
        conn = platform.connect("guestbook")
        for i, (author, message) in enumerate([
            ("ada", "first!"),
            ("grace", "hello from the platform"),
            ("ada", "nice weather in the simulator"),
        ]):
            yield conn.execute(
                "INSERT INTO entries VALUES (?, ?, ?, ?)",
                (i, author, message, 0))
        yield conn.commit()

        yield conn.execute(
            "UPDATE entries SET likes = likes + 1 WHERE author = ?",
            ("ada",))
        yield conn.commit()

        result = yield conn.execute(
            "SELECT author, COUNT(*) posts, SUM(likes) likes "
            "FROM entries GROUP BY author ORDER BY author")
        yield conn.commit()
        return result

    proc = platform.sim.process(client())
    platform.sim.run()

    result = proc.value
    print("guestbook contents (author, posts, likes):")
    for row in result.rows:
        print("  ", row)

    primary, _standby = platform.system.placements["guestbook"]
    cluster = platform.system.colos[primary].cluster_of("guestbook")
    print(f"\nreplicas: {cluster.replica_map.replicas('guestbook')}")
    print(f"committed transactions: {cluster.metrics.total_committed()}")
    print(f"standby colo replication lag: "
          f"{platform.system.replication_lag('guestbook')} txns")


if __name__ == "__main__":
    main()
