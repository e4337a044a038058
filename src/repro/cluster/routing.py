"""Read-routing options and write-acknowledgement policies (Section 3.1).

The three read options trade cache locality against load-balancing
freedom; the two write policies trade client latency against
serializability (Table 1). The :class:`ReadRouter` implements the choice
deterministically (round-robin from a seeded counter) so experiments are
reproducible.
"""

from __future__ import annotations

import enum
from typing import Dict, Sequence


class ReadOption(enum.Enum):
    """Where read operations of a database may be routed.

    * OPTION_1 — all reads of a database go to one designated replica
      (best cache locality; serializable even with an aggressive
      controller — Theorem 1);
    * OPTION_2 — all reads of one transaction go to one replica, chosen
      per transaction;
    * OPTION_3 — each read is routed independently (best load balancing,
      worst cache locality; requires a conservative controller for
      serializability — Theorem 2).
    """

    OPTION_1 = 1
    OPTION_2 = 2
    OPTION_3 = 3


class WritePolicy(enum.Enum):
    """When the controller acknowledges a write to the client.

    * CONSERVATIVE — after *all* replicas finished the write; guarantees
      serializability under every read option (Theorem 2).
    * AGGRESSIVE — after the *first* replica finishes; lower latency, but
      combined with OPTION_2/OPTION_3 can produce non-serializable
      executions when the engines release read locks at PREPARE
      (the paper's Table 1).
    """

    CONSERVATIVE = "conservative"
    AGGRESSIVE = "aggressive"


class ReadRouter:
    """Chooses a replica machine for each read under a given option."""

    def __init__(self, option: ReadOption):
        self.option = option
        self._rr = 0
        # Option 2: transaction id -> machine chosen for its reads.
        self._txn_choice: Dict[int, str] = {}

    def forget(self, txn_id: int) -> None:
        self._txn_choice.pop(txn_id, None)

    def choose(self, txn_id: int, replicas: Sequence[str]) -> str:
        """Pick the machine to serve one read.

        ``replicas`` is the ordered list of *live* replicas of the
        database; the first entry is the designated primary.
        """
        if not replicas:
            raise ValueError("no live replicas to route to")
        if self.option is ReadOption.OPTION_1:
            return replicas[0]
        if self.option is ReadOption.OPTION_2:
            chosen = self._txn_choice.get(txn_id)
            if chosen is None or chosen not in replicas:
                chosen = replicas[self._rr % len(replicas)]
                self._rr += 1
                self._txn_choice[txn_id] = chosen
            return chosen
        # OPTION_3: every read spreads round-robin.
        choice = replicas[self._rr % len(replicas)]
        self._rr += 1
        return choice
