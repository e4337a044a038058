"""Shared driver for Figures 2-4 (throughput with synchronous replication).

One figure = one TPC-W mix; four curves = no-replication baseline plus
read Options 1/2/3 with 2-way synchronous replication, swept over the
number of emulated browsers per database.

Expected shape (paper Section 5): Option 1 best of the replicated
options, within 5-25 % of no-replication; Option 2 next; Option 3 worst —
driven by buffer-pool locality, which the printed hit rates make visible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, format_table, run_scenario
from repro.workloads.tpcw import TpcwScale

CONFIGS: List[Tuple[str, int, ReadOption]] = [
    ("no-replication", 1, ReadOption.OPTION_1),
    ("option-1", 2, ReadOption.OPTION_1),
    ("option-2", 2, ReadOption.OPTION_2),
    ("option-3", 2, ReadOption.OPTION_3),
]

CLIENT_SWEEP = (2, 4)
ITEMS = 1200
POOL_PAGES = 256
DURATION_S = 12.0
THINK_S = 0.02


def run_throughput_figure(mix_name: str) -> Tuple[str, Dict]:
    """Regenerate one of Figures 2-4; returns (text, series)."""
    series: Dict[str, Dict[int, float]] = {}
    hits: Dict[str, float] = {}
    for label, replicas, option in CONFIGS:
        series[label] = {}
        for clients in CLIENT_SWEEP:
            result = experiments.tpcw_report(run_scenario(experiments.tpcw(
                mix=mix_name,
                read_option=option,
                write_policy=WritePolicy.CONSERVATIVE,
                machines=4,
                databases=4,
                replicas=replicas,
                clients_per_db=clients,
                duration_s=DURATION_S,
                scale=TpcwScale(items=ITEMS, emulated_browsers=clients),
                think_time_s=THINK_S,
                buffer_pool_pages=POOL_PAGES,
            )))
            series[label][clients] = result.throughput_tps
            hits[label] = result.buffer_hit_rate
    headers = ["configuration"] + [f"tps @{c} EB/db" for c in CLIENT_SWEEP] \
        + ["buffer hit rate"]
    rows = [
        [label] + [series[label][c] for c in CLIENT_SWEEP] + [hits[label]]
        for label, _, _ in CONFIGS
    ]
    text = format_table(headers, rows)
    return text, series


def peak(series: Dict[str, Dict[int, float]], label: str) -> float:
    return max(series[label].values())
