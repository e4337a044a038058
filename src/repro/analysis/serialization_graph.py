"""Global serialization graph and one-copy-serializability checking.

Following Section 3.1 of the paper (and Bernstein et al.): with
read-one-write-all replication, one-copy serializability holds exactly
when the *global* serialization graph — the union of every site's
conflict edges over committed transactions — is acyclic. The experiments
for Table 1 run adversarial and randomized workloads through the cluster
controller and hand the recorded histories to this checker.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.history import GlobalHistory


class SerializationGraph:
    """A directed graph over transaction ids."""

    def __init__(self, edges: Iterable[Tuple[int, int]] = ()):
        self.adj: Dict[int, Set[int]] = {}
        for src, dst in edges:
            self.add_edge(src, dst)

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.adj.setdefault(src, set()).add(dst)
        self.adj.setdefault(dst, set())

    @property
    def nodes(self) -> Set[int]:
        return set(self.adj)

    def find_cycle(self) -> Optional[List[int]]:
        """Some cycle as a node list, or None if the graph is acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {node: WHITE for node in self.adj}
        stack: List[int] = []

        def dfs(node: int) -> Optional[List[int]]:
            color[node] = GRAY
            stack.append(node)
            for nxt in self.adj.get(node, ()):
                if color[nxt] == GRAY:
                    idx = stack.index(nxt)
                    return stack[idx:] + [nxt]
                if color[nxt] == WHITE:
                    found = dfs(nxt)
                    if found is not None:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for node in list(self.adj):
            if color[node] == WHITE:
                found = dfs(node)
                if found is not None:
                    return found
        return None


def check_one_copy_serializable(
    history: GlobalHistory,
) -> Tuple[bool, Optional[List[int]]]:
    """Check a cluster execution for one-copy serializability.

    Returns ``(ok, cycle)`` where ``cycle`` names the offending
    transactions when the global serialization graph is cyclic.
    """
    graph = SerializationGraph(history.global_edges())
    cycle = graph.find_cycle()
    return cycle is None, cycle
