"""Shared plumbing for the figure/table benchmarks.

Every benchmark regenerates one table or figure from the paper's Section
5. The simulated cluster cannot match the authors' absolute numbers (it
is a simulator, not a 10-machine FreeBSD rack), so each benchmark asserts
the *shape* the paper reports — who wins, roughly by how much, and which
way each curve bends — and prints the regenerated rows/series.

Results are also appended to ``benchmarks/results/<name>.txt`` so the
numbers survive pytest's output capture.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Callable, Dict, Optional, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), ".."))


def report(name: str, text: str, capsys=None) -> None:
    """Print a benchmark's regenerated table and persist it to disk."""
    banner = f"\n===== {name} =====\n{text}\n"
    if capsys is not None:
        with capsys.disabled():
            print(banner)
    else:
        print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")


def peak(series: Dict[str, Dict[int, float]], label: str) -> float:
    """The highest point of one curve of Figures 2-4."""
    return max(series[label].values())


def bench_main(name: str, description: str, smoke_help: str,
               body: Callable[[argparse.Namespace], Tuple[dict, str]],
               argv=None,
               options: Optional[Callable[[argparse.ArgumentParser],
                                          None]] = None) -> int:
    """Plain mode of a benchmark that writes ``BENCH_<name>.json``.

    Parses ``--smoke`` and ``--out`` (plus whatever ``options`` adds),
    runs ``body(args)`` for its JSON payload and printed table, writes
    the payload to ``--out`` or the repository root, then prints the
    table and the path written.
    """
    parser = argparse.ArgumentParser(description=description)
    if options is not None:
        options(parser)
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)
    payload, text = body(args)
    out = args.out or os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(text)
    print(f"wrote {out}")
    return 0
