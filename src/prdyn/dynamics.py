"""Proportional response dynamics for Fisher and exchange markets.

One map covers both modes. Prices are the column sums of the bid matrix,
goods are allocated in proportion to bids, each agent's bank balance becomes
B' = (1 - alpha) B + income(p), and she re-bids e' = alpha B' in proportion
to x_j * grad_j u(x) on her received bundle. An exchange agent's income is
the revenue of the goods she owns, and total money is conserved at 1. A
Fisher market is the special case alpha = 1 with income equal to the fixed
budget, so B' = e' = budgets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRunControl, NonPositiveBid, ShapeMismatch, UnderflowDetected
from .market import (
    DynamicsTrace,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    TraceRecord,
    income,
)
from .utilities import shares

# Bids this small mean the dynamics is heading into a boundary allocation,
# where the potential-function bookkeeping is no longer trustworthy.
BID_FLOOR = 1e-280


@dataclass(frozen=True)
class StopRule:
    max_iters: int
    price_tol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidRunControl(f"max_iters must be >= 1, got {self.max_iters}")
        if self.price_tol < 0:
            raise InvalidRunControl(f"price_tol must be nonnegative, got {self.price_tol}")


def _check_bids(market: MarketSpec, bids: np.ndarray):
    """Entry check on outside bids; _step keeps its bids >= BID_FLOOR."""
    if bids.shape != (market.n_buyers, market.n_goods):
        raise ShapeMismatch(f"bids shape {bids.shape}, market {market.n_buyers}x{market.n_goods}")
    if not np.all(np.isfinite(bids) & (bids > 0)):
        raise NonPositiveBid("bid matrix must be finite and strictly positive")


def _step(market: MarketSpec, bids: np.ndarray, B: np.ndarray, iteration: int):
    """The one PR map on state (bids, B). Returns (p, x, B', e', b') where p
    and x belong to the current iteration."""
    alpha = 1.0 if market.mode is Mode.FISHER else market.laziness
    p = bids.sum(axis=0)
    x = bids / p
    B_next = (1.0 - alpha) * B + income(market, p)
    e_next = alpha * B_next
    b_next = e_next[:, None] * shares(*market.share_rows, x)
    if not (b_next.min() >= BID_FLOOR):
        raise UnderflowDetected(
            f"bid below {BID_FLOOR} or NaN at iteration {iteration + 1}; "
            "the dynamics is approaching a boundary allocation"
        )
    return p, x, B_next, e_next, b_next


def pr_step(market: MarketSpec, state: FisherState):
    """One Fisher PR iteration; returns (next_state, prices, allocation), where
    prices and allocation are computed from state.bids."""
    _check_bids(market, state.bids)
    p, x, _, _, b_next = _step(market, state.bids, market.budgets, state.iteration)
    return FisherState(bids=b_next, iteration=state.iteration + 1), p, x


def lazy_step(market: MarketSpec, state: ExchangeState):
    """One lazy-PR iteration; returns (next_state, prices, allocation)."""
    _check_bids(market, state.bids)
    p, x, B_next, e_next, b_next = _step(market, state.bids, state.budgets_B, state.iteration)
    next_state = ExchangeState(
        budgets_B=B_next, spend_e=e_next, bids=b_next, iteration=state.iteration + 1
    )
    return next_state, p, x


def default_initial_bids(market: MarketSpec) -> np.ndarray:
    """Uniform split of each budget across the goods."""
    return np.repeat(market.budgets[:, None] / market.n_goods, market.n_goods, axis=1)


def default_initial_exchange(market: MarketSpec) -> ExchangeState:
    """Equal bank balances summing to 1, uniform bid split."""
    n, m = market.n_buyers, market.n_goods
    B0 = np.full(n, 1.0 / n)
    e0 = market.laziness * B0
    b0 = np.repeat(e0[:, None] / m, m, axis=1)
    return ExchangeState(budgets_B=B0, spend_e=e0, bids=b0, iteration=0)


def _run(market, bids, B, e, t, stop: StopRule, record_every: int) -> DynamicsTrace:
    """The one run loop for both modes. It stops when the stop quantity
    moves less than stop.price_tol in the infinity norm between successive
    iterations, or after stop.max_iters steps. The stop quantity is the price vector in a
    Fisher market and the allocation in an exchange market. Every
    record_every-th iteration is recorded, plus always the final one."""
    if record_every < 1:
        raise InvalidRunControl(f"record_every must be >= 1, got {record_every}")
    _check_bids(market, bids)
    exchange = market.mode is Mode.EXCHANGE
    trace = DynamicsTrace(mode=market.mode)
    prev = None
    while True:
        p, x, B_next, e_next, b_next = _step(market, bids, B, t)
        watched = x if exchange else p
        delta = float("inf") if prev is None else float(np.max(np.abs(watched - prev)))
        record = TraceRecord(iteration=t, prices=p, bids=bids, allocation=x, max_price_delta=delta)
        if exchange:
            record.budgets_B, record.spend_e = B, e
            trace.track_budget_drift(B)
        if t % record_every == 0:
            trace.records.append(record)
        trace.n_steps = t + 1
        if delta < stop.price_tol:
            trace.stop_reason = "price_tol"
        elif t + 1 >= stop.max_iters:
            trace.stop_reason = "max_iters"
        if trace.stop_reason:
            if not trace.records or trace.records[-1].iteration != t:
                trace.records.append(record)
            return trace
        prev = watched
        bids, B, e, t = b_next, B_next, e_next, t + 1


def run_fisher(
    market: MarketSpec,
    b0: np.ndarray,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run Fisher PR from bids b0; the stop quantity is the price vector."""
    bids = np.asarray(b0, dtype=float)
    return _run(market, bids, market.budgets, market.budgets, 0, stop, record_every)


def run_exchange(
    market: MarketSpec,
    init: ExchangeState,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run lazy PR from init; the stop quantity is the allocation."""
    return _run(
        market, init.bids, init.budgets_B, init.spend_e, init.iteration, stop, record_every
    )
