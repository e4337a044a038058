"""The shape the controller split promised, as assertions on the source.

ROADMAP needle 2 asks for one implementation per mechanism and no
1.5k-line class; DESIGN §4p says where the one remaining message-path
fork lives and why. A change that grows a class past the line, adds a
third ``fabric.enabled`` site, a config field or a forwarding method
fails here first and has to say why. DESIGN §4r adds the measurement
plane's shape: one histogram class, one read-out, counters written
where they live, and an event taxonomy that matches the emit sites.
DESIGN §4t adds the harness's: faults are data, applied in one place.
DESIGN §4u adds the control plane's: one Paxos group per controller,
and no second take-over path beside it. DESIGN §4v adds the policy
surface's: one tenant-scale path with no switch; DESIGN §4w brings it
to 21 settable values across three configs, with admission one path
whose degenerate case is a tenant without an SLA. DESIGN §4b keeps
one implementation per engine operator, batching only the scans, and
DESIGN §4x makes a range read one pass with one grant rule. DESIGN §4y
keeps one First-Fit: the colo places over its clusters' replica maps,
with no placement ledger of its own to keep in sync. DESIGN §4z sends
a machine or a colo out of service one way, and keeps no restart from
the log in ``src/``. DESIGN §4aa makes a bulk load one pass. DESIGN
§4d keeps the trace ring a ring of records: ``emit`` builds no event.
"""

import ast
import dataclasses
import pathlib
import re

from repro.analysis import trace
from repro.cluster.config import ClusterConfig, production_profile
from repro.cluster.consensus import ConsensusConfig
from repro.cluster.network import NetworkConfig
from repro.engine import compile as compile_module

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
CLUSTER = SRC / "cluster"


def parse(path):
    return ast.parse(path.read_text())


def lines_matching(pattern):
    """``path:line`` of every source line under ``src/`` ``pattern``
    matches."""
    return [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]


def enabled_reads(path):
    """Line numbers of ``<anything>.enabled`` attribute reads in code
    (comments and docstrings do not parse to attributes)."""
    return [node.lineno for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute) and node.attr == "enabled"]


def test_no_cluster_class_over_700_lines():
    sizes = {f"{path.name}:{node.name}": node.end_lineno - node.lineno + 1
             for path in sorted(CLUSTER.glob("*.py"))
             for node in ast.walk(parse(path))
             if isinstance(node, ast.ClassDef)}
    assert {name: n for name, n in sizes.items() if n > 700} == {}
    assert sizes["controller.py:ClusterController"] <= 600
    assert sizes["controller.py:TxnCoordinator"] <= 560


def test_the_message_path_fork_is_two_sites_in_one_class():
    controller = parse(CLUSTER / "controller.py")
    rpc_layer = next(node for node in controller.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "RpcLayer")
    sites = enabled_reads(CLUSTER / "controller.py")
    assert len(sites) == 2
    assert all(rpc_layer.lineno <= line <= rpc_layer.end_lineno
               for line in sites)
    assert enabled_reads(SRC / "platform" / "system_controller.py") == []


def callers(tree, name):
    """``Class.method`` (or ``function``) of every def in ``tree`` whose
    body calls something named ``name``."""
    found = set()
    for scope in tree.body:
        for node in ([scope] if isinstance(scope, ast.FunctionDef)
                     else methods(scope) if isinstance(scope, ast.ClassDef)
                     else []):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name == getattr(
                        call.func, "attr", getattr(call.func, "id", None)):
                    found.add(node.name if node is scope
                              else f"{scope.name}.{node.name}")
    return found


def test_one_class_gathers_every_broadcast():
    """DESIGN §4s: the coordinator waits on a ``_Gather``, never on a
    kernel condition, a relay event or a hand-written walk; one helper
    reads an ``Interrupt`` as a machine failure and one asks whether a
    machine still carries a database."""
    controller = parse(CLUSTER / "controller.py")
    for gone in ("all_of", "any_of", "settled"):
        assert callers(controller, gone) == set(), gone
    assert [node for node in ast.walk(controller)
            if isinstance(node, ast.Name) and node.id == "BranchOutcome"] == []
    translating = {scope.name for scope in ast.walk(controller)
                   if isinstance(scope, ast.FunctionDef)
                   for node in ast.walk(scope)
                   if isinstance(node, ast.Name) and node.id == "Interrupt"}
    assert translating == {"_failure"}
    assert callers(controller, "_failure") == {"_Rpc._on_reply",
                                               "_Gather._classify"}
    assert callers(controller, "_serves") == {"TxnCoordinator._execute_read",
                                              "_Gather._classify"}
    assert callers(controller, "_Gather") == {"TxnCoordinator._execute_write",
                                              "TxnCoordinator._commit"}
    commit = next(node for node in ast.walk(controller)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_commit")
    assert len([call for call in ast.walk(commit)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_Gather"]) == 3


def test_cluster_config_surface_is_pinned():
    """Adding a cluster switch means deleting a line of this test (no
    new on/off option: ROADMAP rules that carried over). DESIGN §4v: a
    policy field stays only while some caller sets it to another value;
    the rest are module constants beside their readers."""
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(ClusterConfig) == [
        "read_option",
        "write_policy",
        "replication_factor",
        "lock_wait_timeout_s",
        "recovery_threads",
        "machine",
        "record_history",
        "trace_capacity",
        "network",
        "heartbeat_interval_s",
        "suspect_after_misses",
        "declare_after_misses",
        "consensus",
        "shed_inflight_watermark",
    ]
    assert fields(ConsensusConfig) == ["replicas", "seed"]
    assert fields(NetworkConfig) == ["enabled", "latency_s", "jitter_s",
                                     "drop_probability", "seed"]


def test_every_cluster_runs_admission():
    """DESIGN §4w: every controller builds its admission controller and a
    tenant without an SLA is the degenerate case (no bucket, always
    admitted), so no site asks whether admission is on, and no default
    rate or admission config survives under ``src/``."""
    gone = re.compile(r"AdmissionConfig|DEFAULT_RATE_TPS|admission_control"
                      r"|admission is (not )?None|shed_choice"
                      r"|choose_under_load|SlaMonitor|ComplianceReport")
    assert [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []


def test_one_implementation_per_engine_operator():
    """DESIGN §4b: the columnar predicates, the batched filter, the
    global / counting / generic batched aggregates, the batched SELECT
    loops and the linear placement path left ``src/``; only the batched
    scans and the grouped aggregate over them stay."""
    gone = re.compile(r"_compile_columnar_pred|_compile_filter_batches"
                      r"|_CMP_TESTS|_FLIP_OP|_and_conjuncts|_slot_vs_value"
                      r"|_value_matches|_column_is_numeric"
                      r"|_compile_aggregate_batches|run_global|run_counts"
                      r"|run_generic|run_batched|use_index")
    assert [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []
    assert not hasattr(compile_module.Batch, "column")


def test_a_range_read_is_one_pass():
    """DESIGN §4x: ``compile.py`` reads index ranges through the flat
    leaf walk and never iterates ``range_scan``, and only the range read
    grants a run of locks. The rule that grants a lock without waiting
    is written once, in ``try_acquire``: ``try_acquire_run`` touches no
    lock state itself. ``release_all`` drops its locks with one call of
    the one release loop, ``_unhold``."""
    compile_tree = parse(SRC / "engine" / "compile.py")
    assert [node.lineno for node in ast.walk(compile_tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "range_scan"] == []
    assert len([node for node in ast.walk(compile_tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "rids"]) == 3
    assert [scope.name for scope in compile_tree.body
            if isinstance(scope, ast.FunctionDef)
            for node in ast.walk(scope)
            if isinstance(node, ast.Attribute)
            and node.attr == "try_acquire_run"] == ["_compile_fetch_batches"]
    locks = parse(SRC / "engine" / "locks.py")
    assert callers(locks, "_others_allow") == {
        "LockManager.try_acquire", "LockManager._regrant"}
    manager = next(node for node in locks.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "LockManager")
    run = next(node for node in methods(manager)
               if node.name == "try_acquire_run")
    assert {node.attr for node in ast.walk(run)
            if isinstance(node, ast.Attribute)} == {"try_acquire"}
    assert callers(locks, "_unhold") == {"LockManager.release_all",
                                         "LockManager.release_shared"}
    release_all = next(node for node in methods(manager)
                       if node.name == "release_all")
    assert [node for node in ast.walk(release_all)
            if isinstance(node, ast.For)] == []


def test_every_cluster_runs_the_tenant_scale_path():
    """DESIGN §4v: deferred DDL and the residency caps are the one path.
    No switch for them survives under ``src/``, and a database is born
    cold: ``create_database`` touches no engine."""
    gone = re.compile(r"lazy_engine_ddl|max_resident_|shed_reads"
                      r"|delta_max_replay_rounds")
    assert [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []
    controller = next(node for node in parse(CLUSTER / "controller.py").body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "ClusterController")
    create = next(node for node in methods(controller)
                  if node.name == "create_database")
    assert [node.lineno for node in ast.walk(create)
            if isinstance(node, ast.Attribute) and node.attr == "engine"] == []


def test_no_method_of_controller_py_only_forwards_to_a_role():
    """``def f(self, ...): return self.<role>.f(...)`` is what the split
    was not allowed to leave behind: callers reach the role that owns
    the state."""
    forwarding = []
    for node in ast.walk(parse(CLUSTER / "controller.py")):
        if not isinstance(node, ast.FunctionDef):
            continue
        body = [stmt for stmt in node.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))]
        if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
            continue
        call = body[0].value
        if isinstance(call, (ast.YieldFrom, ast.Yield)):
            call = call.value
        if (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == node.name
                and isinstance(call.func.value, ast.Attribute)
                and isinstance(call.func.value.value, ast.Name)
                and call.func.value.value.id == "self"):
            forwarding.append(node.name)
    assert forwarding == []


def test_replication_log_is_a_real_seam():
    imported = set()
    for node in ast.walk(parse(CLUSTER / "replication_log.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.cluster.controller" not in imported
    # The controller names replication state once: the db_logs alias the
    # benchmark reads.
    state = ("db_logs", "replica_lsns", "_stale_holdings", "_log_lru")
    lines = [line.strip()
             for line in (CLUSTER / "controller.py").read_text().splitlines()
             if any(name in line for name in state)]
    assert len(lines) == 1
    assert lines[0].startswith("self.db_logs = self.replication.db_logs")


def test_production_profile_is_the_benchmarks_profile():
    """``production_profile`` and the benchmark's set-if-present
    ``PROD_PROFILE`` dict must describe one configuration."""
    workloads = parse(REPO / "benchmarks" / "e2e" / "workloads.py")
    profile = next(ast.literal_eval(node.value) for node in workloads.body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "PROD_PROFILE")
    assert profile.pop("lazy_tenant_state") is True     # deleted by PR 21
    assert profile.pop("consensus_enabled") is True     # the group is all
    assert profile.pop("admission_control") is True     # the one path
    applied = ClusterConfig()
    for path, value in dict(profile, **{"network.seed": 7,
                                        "consensus.seed": 7}).items():
        *parents, leaf = path.split(".")
        target = applied
        for part in parents:
            target = getattr(target, part)
        assert hasattr(target, leaf), path
        setattr(target, leaf, value)
    assert applied == production_profile(7)


def methods(cls):
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def test_metrics_collector_is_counters_plus_one_snapshot():
    """A one-line ``x += 1`` forward or a second hand-written view is
    what PR 23 deleted: the site writes the typed counter it means and
    ``snapshot()`` is the read-out."""
    collector = next(node for node in parse(SRC / "analysis" / "metrics.py").body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "MetricsCollector")
    names = [node.name for node in methods(collector)]
    assert len([name for name in names if name.startswith("record_")]) <= 8
    assert [name for name in names if name.endswith("_summary")] == []
    assert [node.name for node in methods(collector)
            if node.returns is not None
            and ast.unparse(node.returns).startswith("Dict")] == ["snapshot"]


def test_one_histogram_class():
    """One class takes samples and answers with percentiles."""
    percentile = re.compile(r"percentile|p\d+$|summary$")
    found = [f"{path.relative_to(SRC)}:{node.name}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(parse(path))
             if isinstance(node, ast.ClassDef)
             and "observe" in {m.name for m in methods(node)}
             and any(percentile.match(m.name) for m in methods(node))]
    assert found == ["analysis/metrics.py:Histogram"]


HARNESS = SRC / "harness"
#: What breaks the world: only the fault applier calls these.
FAULT_EFFECTS = ("fail_machine", "crash_machine", "repair_machine",
                 "crash_controller", "repair_controller", "crash_colo",
                 "repair_colo", "cut", "heal", "split", "heal_all",
                 "crash_all")


def test_faults_are_data_applied_in_one_place():
    """DESIGN §4t: the draws are the only RNG users of ``faults.py``, no
    class there has a start/stop lifecycle, and every fault effect the
    harness causes goes through the applier — but ``run_scenario``'s
    closing ``heal_all`` (a finale is a schedule entry too)."""
    faults = parse(HARNESS / "faults.py")
    assert callers(faults, "SeededRNG") == {
        "crashes", "link_cuts", "controller_kills", "wan_cuts"}
    assert [f"{cls.name}.{node.name}" for cls in ast.walk(faults)
            if isinstance(cls, ast.ClassDef) for node in methods(cls)
            if node.name in ("start", "stop")] == []
    sites = {}
    for path in sorted(HARNESS.glob("*.py")):
        for name in FAULT_EFFECTS:
            for site in callers(parse(path), name):
                sites.setdefault(f"{path.stem}:{site}", set()).add(name)
    outside = {site: names for site, names in sites.items()
               if not site.startswith("faults:_Applier.")}
    assert outside == {"scenario:run_scenario": {"heal_all"}}
    assert sum(len(enabled_reads(path))
               for path in HARNESS.glob("*.py")) <= 2


def test_one_experiment_loop():
    """DESIGN §4n: every simulation the harness runs is a declared
    ``Scenario``; the module of hand-written run loops is gone, and only
    ``run_scenario`` builds a simulator under ``repro.harness``."""
    assert not (HARNESS / "runner.py").exists()
    assert [path.name for path in sorted(HARNESS.glob("*.py"))
            if "Simulator(" in path.read_text()] == ["scenario.py"]


def test_every_emitted_kind_is_in_the_taxonomy_table():
    """The table in ``repro.analysis.trace``'s docstring is the one list
    of event kinds; a literal kind passed to ``.emit(`` anywhere under
    ``src/`` has a row (``name_*`` / ``name*`` rows are prefixes,
    ``link_cut/healed`` is two kinds)."""
    exact, prefixes = set(), []
    for row in re.findall(r"^([a-z_]+[*/a-z]*) ", trace.__doc__, re.M):
        head, _, alternative = row.partition("/")
        if head.endswith("*"):
            prefixes.append(head[:-1])
        else:
            exact.add(head)
        if alternative:
            exact.add(f"{head.rsplit('_', 1)[0]}_{alternative}")
    emitted = {node.args[0].value: f"{path.relative_to(SRC)}:{node.lineno}"
               for path in sorted(SRC.rglob("*.py"))
               for node in ast.walk(parse(path))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "emit" and node.args
               and isinstance(node.args[0], ast.Constant)}
    assert len(emitted) > 60 and {"committed", "link_healed"} <= set(emitted)
    assert {kind: site for kind, site in emitted.items()
            if kind not in exact
            and not any(kind.startswith(p) for p in prefixes)} == {}


def test_one_control_plane():
    """DESIGN §4u: every controller owns one Paxos group — a group of
    one by default — so no second take-over path, switch or attachment
    survives beside it, no site asks whether a plane is attached, and
    the log decides what a take-over reads and nothing else."""
    gone = re.compile(r"primary_alive|ProcessPairBackup|consensus_enabled"
                      r"|crash_primary|\.backup\b")
    assert [f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []
    assert [f"{path.name}:{number}"
            for path in sorted(CLUSTER.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"consensus is (not )?None", line)] == []
    assert not (CLUSTER / "process_pair.py").exists()
    state = next(node for node in parse(CLUSTER / "consensus.py").body
                 if isinstance(node, ast.ClassDef)
                 and node.name == "ControllerState")
    apply = next(node for node in methods(state) if node.name == "apply")
    kinds = {constant.value for node in ast.walk(apply)
             if isinstance(node, ast.Compare)
             and getattr(node.left, "id", None) == "kind"
             for constant in node.comparators
             if isinstance(constant, ast.Constant)}
    assert kinds == {"noop", "leader_takeover", "decision", "decision_clear"}


def test_the_colo_keeps_no_placement_ledger():
    """DESIGN §4y: the colo derives First-Fit's view from its clusters'
    replica maps, so its own First-Fit, its shadow bins and the two
    hooks that kept them in sync left ``src/``."""
    gone = re.compile(r"machine_reset_hook|machine_rejoin_hook"
                      r"|_fit_in_cluster|_release_machine_bin"
                      r"|_rebind_machine_bin")
    assert lines_matching(gone) == []


def test_a_machine_leaves_service_one_way():
    """DESIGN §4z: ``fail`` is a crash the controller declares at once,
    for a machine and for a colo; no second bookkeeping, trace kind or
    restart-from-log path is left in ``src/``."""
    gone = re.compile(r"recover_engine|RecoveredState|revert_delta"
                      r"|pin_snapshot|release_snapshot|keep_holdings"
                      r'|"machine_failed"|"colo_failed"')
    assert lines_matching(gone) == []
    for path, cls, name, crash, declare in (
            (CLUSTER / "controller.py", "ClusterController",
             "fail_machine", "crash_machine", "declare_dead"),
            (SRC / "platform" / "system_controller.py", "SystemController",
             "fail_colo", "crash_colo", "declare_colo_dead")):
        owner = next(node for node in ast.walk(parse(path))
                     if isinstance(node, ast.ClassDef) and node.name == cls)
        body = next(node for node in methods(owner)
                    if node.name == name).body
        if isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant):
            body = body[1:]                      # the docstring
        assert [ast.unparse(statement) for statement in body] == [
            f"self.{crash}(name)",
            f"return self.{declare}(name, reason='failed')"]


def test_a_bulk_load_is_one_pass():
    """DESIGN §4aa: a tenant's load and a copy's destination go through
    ``HeapTable.insert_many`` and one column-wise statistics add, with
    no loop over rows of their own; ``CREATE INDEX`` grows its tree with
    ``BPlusTree.extend``, imported once at module level."""

    def row_loops(method):
        """Loops of ``method`` over its ``rows`` (a loop over replicas
        is not one)."""
        return [node.lineno for node in ast.walk(method)
                if isinstance(node, ast.While) or (
                    isinstance(node, (ast.For, ast.comprehension))
                    and "rows" in {name.id for name in ast.walk(node.iter)
                                   if isinstance(name, ast.Name)})]

    engine = parse(SRC / "engine" / "engine.py")
    engine_cls = next(node for node in engine.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "Engine")
    controller = next(node for node in parse(CLUSTER / "controller.py").body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "ClusterController")
    load = next(node for node in methods(engine_cls)
                if node.name == "load_table_rows")
    bulk = next(node for node in methods(controller)
                if node.name == "bulk_load")
    assert row_loops(load) == [] and row_loops(bulk) == []
    assert "insert_many" in {node.attr for node in ast.walk(load)
                             if isinstance(node, ast.Attribute)}
    ddl = next(node for node in methods(engine_cls)
               if node.name == "_execute_ddl")
    called = {node.func.attr for node in ast.walk(ddl)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert "extend" in called and "insert" not in called
    assert [node.lineno for node in ast.walk(engine_cls)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_the_trace_ring_builds_no_event_on_emit():
    """DESIGN §4d: ``Tracer.emit`` stores one flat record; a
    ``TraceEvent`` is built only when ``events()`` reads it back."""
    tracer = next(node for node in parse(SRC / "analysis" / "trace.py").body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    emit = next(node for node in methods(tracer) if node.name == "emit")
    built = {node.func.id for node in ast.walk(emit)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "TraceEvent" not in built
    assert "TraceEvent" in {node.func.id for node in ast.walk(tracer)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)}


def test_src_stands_alone():
    """DESIGN §4n: the paper's tables and figures live in
    ``repro.harness.experiments``, so nothing under ``src/`` reaches into
    the checkout around it — no ``sys.path`` edit, and no string in code
    (docstrings aside) that names the ``benchmarks`` directory."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = parse(path)
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "path"
                    and getattr(node.value, "id", None) == "sys"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "benchmarks" in node.value
                    and id(node) not in docstrings):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
