"""Unit tests for the experiment harness and reporting."""

import ast
import dataclasses
import pathlib

import pytest

from repro.cluster import ClusterConfig, ConsensusConfig
from repro.harness import experiments, format_series, format_table
from repro.harness.faults import Fault, crashes
from repro.harness.scenario import Kv, Scenario, run_scenario
from repro.sla.optimal import first_fit_vs_optimal
from repro.workloads.tpcw import TpcwScale


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1], ["long-name", 123.456]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "123" in lines[3]

    def test_format_table_float_rendering(self):
        text = format_table(["x"], [[0.12345], [1234.5], [2.5], [0]])
        assert "0.1234" in text or "0.1235" in text
        assert "1235" in text or "1234" in text
        assert "2.50" in text

    def test_format_series(self):
        text = format_series("tps", [(0.0, 1.0), (10.0, 2.0)])
        lines = text.splitlines()
        assert lines[0] == "# tps"
        assert len(lines) == 3


class TestTpcwRunner:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario(experiments.tpcw(
            mix="shopping", machines=3, databases=2, replicas=2,
            clients_per_db=2, duration_s=5.0,
            scale=TpcwScale(items=150, emulated_browsers=2),
            think_time_s=0.05))

    def test_throughput_positive(self, run):
        result = experiments.tpcw_report(run)
        assert result.committed > 0
        assert result.throughput_tps == pytest.approx(
            result.committed / run.sim.now)

    def test_buffer_hit_rate_sane(self, run):
        assert 0.0 < experiments.tpcw_report(run).buffer_hit_rate <= 1.0

    def test_metrics_exposed(self, run):
        assert set(run.metrics.per_db) == {"tpcw0", "tpcw1"}

    def test_run_counts_read_browser_stats(self, run):
        """A run's client counters read TPC-W browsers as they read
        key-value clients."""
        assert run.aborted == sum(s.deadlocks + s.rejections + s.other_aborts
                                  for s in run.stats)
        assert sum(s.committed for s in run.stats) == sum(
            s.completed for s in run.stats) > 0

    def test_no_replication_variant(self):
        run = run_scenario(experiments.tpcw(
            mix="browsing", machines=2, databases=1, replicas=1,
            clients_per_db=1, duration_s=3.0,
            scale=TpcwScale(items=100, emulated_browsers=1),
            think_time_s=0.05))
        assert run.committed > 0
        assert run.controller.replica_map.replica_count("tpcw0") == 1


class TestSlaPlacementRunner:
    def test_runs_and_orders(self):
        low = first_fit_vs_optimal(0.4, n_databases=10, seed=1)
        high = first_fit_vs_optimal(2.0, n_databases=10, seed=1)
        assert low.avg_size_mb > high.avg_size_mb
        assert low.machines_first_fit >= low.machines_optimal
        assert high.machines_first_fit >= high.machines_optimal

    def test_deterministic(self):
        a = first_fit_vs_optimal(1.2, n_databases=8, seed=5)
        b = first_fit_vs_optimal(1.2, n_databases=8, seed=5)
        assert a == b


def _tiny(**fields):
    return Scenario(config=ClusterConfig(), seed=1, duration_s=2.0,
                    machines=3, databases=1, tenant=Kv(keys=10),
                    clients_per_db=1, **fields)


class TestRunScenario:
    def test_services_then_injectors_in_declared_order(self):
        """Services start in declared order; the faults are drawn after
        them, from the built world, before the first client."""
        log = []

        def service(name):
            return lambda run: log.append(("service", name, run.sim.now))

        def faults(run):
            log.append(("faults", sorted(run.controller.machines),
                        len(run.stats)))
            return [Fault(1.5, "repair", 0), Fault(0.5, "fail", 0)]

        run = run_scenario(_tiny(
            services={"s2": service("s2"), "s1": service("s1")},
            faults=faults))
        assert log == [("service", "s2", 0.0), ("service", "s1", 0.0),
                       ("faults", ["cluster-m1", "cluster-m2",
                                   "cluster-m3"], 0)]
        assert list(run.parts) == ["s2", "s1"]
        assert run.schedule == [Fault(0.5, "fail", 0),
                                Fault(1.5, "repair", 0)]
        # Three machines sit on the floor: both entries are skipped.
        assert [(a.at, a.kind, a.result) for a in run.applied] == [
            (0.5, "fail", "min live machines"),
            (1.5, "repair", "nothing to repair")]

    def test_injectors_stop_at_duration_services_outlive_the_drain(self):
        ticks = []

        def ticker(run):
            def loop():
                while True:
                    yield run.sim.timeout(0.5)
                    ticks.append(run.sim.now)
            return run.sim.process(loop())

        run = run_scenario(_tiny(
            drain_s=3.0, services={"ticker": ticker},
            faults=lambda run: crashes(1, sorted(run.controller.machines),
                                       run.scenario.duration_s, 0.2,
                                       repair_mtbf_s=0.2)))
        assert run.schedule and len(run.applied) == len(run.schedule)
        assert max(a.at for a in run.applied) < 2.0
        assert run.sim.now == 5.0
        assert run.parts["ticker"].is_alive
        assert max(ticks) > 4.0

    def test_staged_action_runs_at_its_instant_and_can_spawn_clients(self):
        def crowd(run):
            run.marks["at"] = run.sim.now
            run.marks["crowd"] = [run.spawn_client(0, 100 + i, 0.01)
                                  for i in range(3)]

        run = run_scenario(_tiny(staged=[(1.25, crowd)]))
        assert run.marks["at"] == 1.25
        assert len(run.stats) == 1 + 3
        assert all(s.committed > 0 for s in run.marks["crowd"])
        assert run.committed == sum(s.committed for s in run.stats)

    def test_no_heal_all_without_the_fabric(self):
        run = run_scenario(_tiny(drain_s=1.0))
        assert not run.controller.fabric.enabled
        assert run.events("net_heal_all") == []
        assert run.recoveries == [] and "recovery" not in run.parts

    def test_finale_records_the_primary_crash(self):
        """A finale is a schedule entry past ``duration_s`` — here the
        leader kill of a group of three — applied during the drain."""
        scenario = dataclasses.replace(
            _tiny(drain_s=3.0,
                  faults=lambda run: [Fault(3.0, "kill_ctl", "leader")]),
            config=dataclasses.replace(
                ClusterConfig(), consensus=ConsensusConfig(replicas=3)))
        run = run_scenario(scenario)
        assert run.sim.now == 5.0
        finale, = run.applied
        assert (finale.at, finale.kind, finale.resolved) == (
            3.0, "kill_ctl", "cluster-ctl0")
        crashed, = run.events("ctl_crashed")
        assert crashed.t == 3.0 and crashed.extra["acting"]
        assert run.committed > 0


def test_every_harness_parameter_has_a_caller():
    """A settable value nobody sets is dead weight that still has to be
    read, documented and kept working: every parameter of every public
    harness function, and every field of a ``scenario`` declaration,
    must be passed by some call site under ``src/``,
    ``tests/``, ``benchmarks/`` or ``examples/`` (by keyword or by
    position; a function handed over as a value — a CLI command in the
    registry — is called with its required parameters)."""
    root = pathlib.Path(__file__).resolve().parents[2]
    declared, required = {}, {}
    for path in sorted((root / "src/repro/harness").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.ClassDef) and node.name != "Run"
                    and path.name == "scenario.py"):
                # A declaration's fields are its parameters (set by
                # constructor or by ``dataclasses.replace``); a Run's are
                # what the loop fills in.
                declared[node.name] = [
                    f.target.id for f in node.body
                    if isinstance(f, ast.AnnAssign)]
                required[node.name] = []
            elif (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                spec = node.args
                params = [a.arg for a in
                          spec.posonlyargs + spec.args + spec.kwonlyargs]
                declared[node.name] = params
                required[node.name] = params[:len(spec.posonlyargs)
                                             + len(spec.args)
                                             - len(spec.defaults)]
    passed = {name: set() for name in declared}
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            callees = set()
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callees.add(id(node.func))
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name in declared:
                    passed[name].update(declared[name][:len(node.args)])
                    passed[name].update(k.arg for k in node.keywords)
                if name == "replace":
                    for fields in passed.values():
                        fields.update(k.arg for k in node.keywords)
            for node in ast.walk(tree):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (isinstance(node, (ast.Name, ast.Attribute))
                        and name in declared and id(node) not in callees):
                    passed[name].update(required[name])
    orphans = [f"{name}: {param}" for name, params in declared.items()
               for param in params if param not in passed[name]]
    assert not orphans, "parameters no call site passes:\n" + \
        "\n".join(orphans)
