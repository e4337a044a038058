"""Tunable parameters of a MiniSQL engine instance.

Defaults are scaled so that simulated TPC-W runs produce throughput in the
single-digit transactions-per-second range per small database, matching the
magnitudes in the paper's Table 2 (0.1-10 TPS per application database).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    """Configuration for one engine (one simulated MySQL instance).

    Every field either sizes the modelled machine or selects between
    behaviours the paper's experiments need both of. How a statement is
    planned and executed is not configurable: there is one pipeline (see
    :mod:`repro.engine.engine`).

    Attributes:
        rows_per_page: heap rows stored per page; page count drives the
            buffer-pool footprint of each table.
        buffer_pool_pages: LRU capacity of the engine's page cache, shared
            by every database the machine hosts (the paper configured a
            2 GB InnoDB buffer pool on 4 GB machines).
        btree_order: fan-out of B+Tree index nodes.
        cpu_cost_per_row_us: simulated CPU microseconds charged per row
            examined by the executor.
        cpu_cost_per_statement_us: fixed per-statement overhead (parse,
            plan, network) in microseconds.
        page_hit_us: simulated cost of reading a cached page.
        page_miss_ms: simulated cost of a disk read on buffer-pool miss.
        log_flush_ms: simulated cost of a synchronous WAL flush
            (commit/prepare force).
    """

    rows_per_page: int = 32
    buffer_pool_pages: int = 2048
    btree_order: int = 32
    # InnoDB-style non-locking consistent reads: plain SELECTs take no
    # locks and see the last committed image of rows another transaction
    # is currently changing (read-committed via before-images). Writes,
    # DML source scans, and SELECT ... FOR UPDATE still lock. Default
    # False: the paper's formal model (Section 3.1) assumes strict-2PL
    # locking reads, and Table 1's results depend on them; the deadlock
    # experiments (Figures 5-7) enable this to match MySQL, where
    # deadlocks come from write-write conflicts only.
    nonlocking_reads: bool = False
    cpu_cost_per_row_us: float = 2.0
    cpu_cost_per_statement_us: float = 80.0
    page_hit_us: float = 1.0
    page_miss_ms: float = 1.5
    log_flush_ms: float = 0.8
