"""The three TPC-W interaction mixes.

Weights are the percentages from TPC-W v1.8 Table 6.2.1.2 (browsing,
shopping, and ordering mixes over the 14 web interactions). The write mix
— the fraction of interactions whose database transaction updates data —
rises from ~5 % (browsing) to ~50 % (ordering), which is what separates
the three throughput figures and drives the availability SLA term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.rng import SeededRNG

INTERACTIONS = [
    "home", "new_products", "best_sellers", "product_detail",
    "search_request", "search_results", "shopping_cart",
    "customer_registration", "buy_request", "buy_confirm",
    "order_inquiry", "order_display", "admin_request", "admin_confirm",
]

# Interactions whose transaction performs at least one write.
WRITE_INTERACTIONS = {
    "shopping_cart", "customer_registration", "buy_request",
    "buy_confirm", "admin_confirm",
}

_BROWSING = {
    "home": 29.00, "new_products": 11.00, "best_sellers": 11.00,
    "product_detail": 21.00, "search_request": 12.00,
    "search_results": 11.00, "shopping_cart": 2.00,
    "customer_registration": 0.82, "buy_request": 0.75,
    "buy_confirm": 0.69, "order_inquiry": 0.30, "order_display": 0.25,
    "admin_request": 0.10, "admin_confirm": 0.09,
}

_SHOPPING = {
    "home": 16.00, "new_products": 5.00, "best_sellers": 5.00,
    "product_detail": 17.00, "search_request": 20.00,
    "search_results": 17.00, "shopping_cart": 11.60,
    "customer_registration": 3.00, "buy_request": 2.60,
    "buy_confirm": 1.20, "order_inquiry": 0.75, "order_display": 0.66,
    "admin_request": 0.10, "admin_confirm": 0.09,
}

_ORDERING = {
    "home": 9.12, "new_products": 0.46, "best_sellers": 0.46,
    "product_detail": 12.35, "search_request": 14.53,
    "search_results": 13.08, "shopping_cart": 13.53,
    "customer_registration": 12.86, "buy_request": 12.73,
    "buy_confirm": 10.18, "order_inquiry": 1.25, "order_display": 1.10,
    "admin_request": 0.22, "admin_confirm": 0.12,
}


@dataclass(frozen=True)
class Mix:
    """One interaction mix: name plus normalized weights."""

    name: str
    weights: Tuple[Tuple[str, float], ...]

    @classmethod
    def from_percentages(cls, name: str, table: Dict[str, float]) -> "Mix":
        missing = set(INTERACTIONS) - set(table)
        if missing:
            raise ValueError(f"mix {name!r} missing interactions: {missing}")
        total = sum(table.values())
        return cls(name, tuple((k, table[k] / total) for k in INTERACTIONS))

    def choose(self, rng: SeededRNG) -> str:
        names = [k for k, _ in self.weights]
        weights = [w for _, w in self.weights]
        return rng.weighted_choice(names, weights)


MIXES: Dict[str, Mix] = {
    "browsing": Mix.from_percentages("browsing", _BROWSING),
    "shopping": Mix.from_percentages("shopping", _SHOPPING),
    "ordering": Mix.from_percentages("ordering", _ORDERING),
}
