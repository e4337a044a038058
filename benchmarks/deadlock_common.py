"""Shared driver for Figures 5-7 (deadlock rate vs database size).

One figure = one TPC-W mix; curves = read Options 1/2/3; x-axis =
database size (scaled by item count, with all dependent tables following
the TPC-W ratios).

Expected shape (paper Section 5): the deadlock rate falls as the
database grows (lock conflicts dilute over more rows), and there is "no
significant difference in the number of deadlocks for the different
options".

The dominant deadlock is buy-confirm's check-then-decrement on item
stock: two buyers of the same item both hold S and both upgrade to X.
The chance two concurrent carts share an item falls as the catalog
grows — the falling curve. (`bench_ablation_nonlocking_reads` shows the
same sweep under MySQL-style consistent reads, where plain SELECTs take
no locks at all.)
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, format_table, run_scenario
from repro.workloads.tpcw import TpcwScale

SIZES = (100, 250, 600)        # items per database (size sweep)
OPTIONS = (ReadOption.OPTION_1, ReadOption.OPTION_2, ReadOption.OPTION_3)
CLIENTS = 12
DURATION_S = 12.0


def _scale_for(items: int) -> TpcwScale:
    """Scale the *whole* database with the item count.

    The paper varies "the size of each database": customers, orders, and
    order lines grow with the catalog (TPC-W's own ratios), so lock
    conflicts dilute across every table as the database grows.
    """
    return TpcwScale(items=items, emulated_browsers=max(4, items // 12))


def run_deadlock_figure(mix_name: str) -> Tuple[str, Dict]:
    rates: Dict[ReadOption, Dict[int, float]] = {opt: {} for opt in OPTIONS}
    counts: Dict[ReadOption, Dict[int, int]] = {opt: {} for opt in OPTIONS}
    for option in OPTIONS:
        for items in SIZES:
            result = experiments.tpcw_report(run_scenario(experiments.tpcw(
                mix=mix_name,
                read_option=option,
                write_policy=WritePolicy.CONSERVATIVE,
                machines=4,
                databases=2,
                replicas=2,
                clients_per_db=CLIENTS,
                duration_s=DURATION_S,
                scale=_scale_for(items),
                think_time_s=0.005,
                buffer_pool_pages=1024,
                lock_wait_timeout_s=1.0,
            )))
            rates[option][items] = result.deadlock_rate_per_s
            counts[option][items] = result.deadlocks
    headers = ["db size (items)"] + [opt.name.lower() for opt in OPTIONS]
    rows = [
        [items] + [rates[opt][items] for opt in OPTIONS]
        for items in SIZES
    ]
    text = ("deadlock rate (deadlocks/second)\n"
            + format_table(headers, rows))
    return text, {"rates": rates, "counts": counts}


def assert_deadlock_shape(data: Dict, write_heavy: bool) -> None:
    rates = data["rates"]
    for option in OPTIONS:
        smallest = rates[option][SIZES[0]]
        largest = rates[option][SIZES[-1]]
        # Rate falls (or stays flat at ~zero) as the database grows.
        assert largest <= smallest + 0.2, (
            f"{option}: rate grew with size ({smallest} -> {largest})")
    if write_heavy:
        # The write-heavy mix must actually exhibit deadlocks at the
        # smallest size for the trend to mean anything.
        assert any(data["counts"][opt][SIZES[0]] > 0 for opt in OPTIONS)
