"""Market descriptions and dynamic-state containers.

Goods always have unit supply. Fisher markets carry fixed money budgets;
exchange markets carry good endowments (a partition of the goods among the
agents) plus a per-agent laziness parameter alpha in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    EndowmentNotPartition,
    LazinessOutOfRange,
    NonPositiveBudget,
    UtilityParamInvalid,
)
from .utilities import UtilitySpec, share_row

# Floats of one n x m record field stacked at once, by the diagnostics and by
# the run driver's bookkeeping. A block holds as many records or steps as fit
# in BLOCK_ENTRIES (at least one), so each stacked array stays near 256 KB
# whatever the trace length or market size. A fixed record count
# does not bound memory: blocks of 1024 records raised the peak memory of
# `prdyn run --diagnostics` and `verify` on 60x60 Fisher markets by 16 %.
BLOCK_ENTRIES = 1 << 15


class Mode(Enum):
    FISHER = "fisher"
    EXCHANGE = "exchange"


@dataclass(frozen=True)
class MarketSpec:
    """Immutable market description.

    Fisher mode: ``budgets`` set, ``endowments``/``laziness`` None.
    Exchange mode: the converse; ``endowments[i]`` is the tuple of 0-based
    good indices owned by agent i, and the tuples partition range(n_goods).
    """

    n_buyers: int
    n_goods: int
    utilities: Tuple[UtilitySpec, ...]
    mode: Mode
    budgets: Optional[np.ndarray] = None
    endowments: Optional[Tuple[Tuple[int, ...], ...]] = None
    laziness: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if self.budgets is not None:
            object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        if self.laziness is not None:
            object.__setattr__(self, "laziness", np.asarray(self.laziness, dtype=float))
        if self.endowments is not None:
            object.__setattr__(
                self, "endowments", tuple(tuple(int(j) for j in g) for g in self.endowments)
            )

    @cached_property
    def ownership(self) -> np.ndarray:
        """One-hot matrix O (exchange mode): O[i, j] = 1 when agent i owns good j."""
        O = np.zeros((self.n_buyers, self.n_goods))
        for i, goods in enumerate(self.endowments):
            O[i, list(goods)] = 1.0
        return O

    @cached_property
    def share_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """n x m arrays (C, R); row i is buyer i's ``utilities.share_row``."""
        C, R = zip(*(share_row(u) for u in self.utilities))
        return np.stack(C), np.stack(R)


def income(market: MarketSpec, p: np.ndarray) -> np.ndarray:
    """Money each agent receives at prices p: the fixed budget in a Fisher
    market, the revenue O @ p of the owned goods in an exchange market."""
    if market.mode is Mode.FISHER:
        return market.budgets
    return market.ownership @ p


def validate_market(spec: MarketSpec) -> MarketSpec:
    """Check all structural invariants; return the market unchanged if they hold."""
    n, m = spec.n_buyers, spec.n_goods
    if n < 1 or m < 1:
        raise UtilityParamInvalid(f"market must have at least one buyer and one good, got {n}x{m}")
    if len(spec.utilities) != n:
        raise UtilityParamInvalid(f"expected {n} utilities, got {len(spec.utilities)}")
    for i, u in enumerate(spec.utilities):
        if u.n_goods != m:
            raise UtilityParamInvalid(f"buyer {i}: utility covers {u.n_goods} goods, market has {m}")

    if spec.mode is Mode.FISHER:
        if spec.budgets is None:
            raise NonPositiveBudget("Fisher market requires budgets")
        if spec.endowments is not None or spec.laziness is not None:
            raise UtilityParamInvalid("Fisher market must not carry endowments or laziness")
        if spec.budgets.shape != (n,):
            raise NonPositiveBudget(f"budgets shape {spec.budgets.shape}, expected ({n},)")
        if not np.all(np.isfinite(spec.budgets) & (spec.budgets > 0)):
            raise NonPositiveBudget(
                f"budgets must be finite and strictly positive, got {spec.budgets}"
            )
    else:
        if spec.budgets is not None:
            raise UtilityParamInvalid("exchange market must not carry budgets")
        if spec.endowments is None or spec.laziness is None:
            raise EndowmentNotPartition("exchange market requires endowments and laziness")
        if len(spec.endowments) != n:
            raise EndowmentNotPartition(f"expected {n} endowment sets, got {len(spec.endowments)}")
        for i, goods in enumerate(spec.endowments):
            if not goods:
                raise EndowmentNotPartition(f"agent {i} owns no goods, so it never has income")
        owned = [j for g in spec.endowments for j in g]
        if sorted(owned) != list(range(m)):
            raise EndowmentNotPartition(
                f"endowment sets must partition the {m} goods, got {spec.endowments}"
            )
        if spec.laziness.shape != (n,):
            raise LazinessOutOfRange(f"laziness shape {spec.laziness.shape}, expected ({n},)")
        if not np.all((spec.laziness > 0) & (spec.laziness < 1)):
            raise LazinessOutOfRange(f"laziness must lie in (0, 1), got {spec.laziness}")
    return spec


@dataclass(frozen=True)
class FisherState:
    """Bid matrix b[i, j] (currency) at one iteration of the Fisher dynamics."""

    bids: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))


@dataclass(frozen=True)
class ExchangeState:
    """Per-agent bank balance B, spendable money e = alpha * B, and bids."""

    budgets_B: np.ndarray
    spend_e: np.ndarray
    bids: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "budgets_B", np.asarray(self.budgets_B, dtype=float))
        object.__setattr__(self, "spend_e", np.asarray(self.spend_e, dtype=float))
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))


@dataclass
class TraceRecord:
    """State of one recorded iteration."""

    iteration: int
    prices: np.ndarray
    bids: np.ndarray
    allocation: np.ndarray
    max_price_delta: float
    potential_value: float = float("nan")
    budgets_B: Optional[np.ndarray] = None
    spend_e: Optional[np.ndarray] = None


@dataclass
class DynamicsTrace:
    """Ordered per-iteration records plus run-level bookkeeping.

    ``budget_drift`` is the worst deviation of sum_i B_i from 1 seen at any
    iteration of an exchange run (0.0 for Fisher runs); a trace read back
    from a full dump rebuilds it from the recorded B_i.
    """

    mode: Mode
    records: List[TraceRecord] = field(default_factory=list)
    stop_reason: str = ""
    n_steps: int = 0
    budget_drift: float = 0.0

    def track_budget_drift(self, budgets_B: np.ndarray):
        """Widen budget_drift to cover one vector of bank balances, or a
        stack of them along a leading axis. A NaN balance makes it NaN."""
        deviation = np.abs(np.add.reduce(budgets_B, axis=-1) - 1.0)
        self.budget_drift = float(np.maximum.reduce(deviation, None, initial=self.budget_drift))

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records])

    def is_consecutive(self) -> bool:
        its = self.iterations()
        return its.size > 0 and its[0] == 0 and bool(np.all(np.diff(its) == 1))
