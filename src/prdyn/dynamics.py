"""Proportional response dynamics for Fisher and exchange markets.

One map covers both modes. Prices are the column sums of the bid matrix,
goods are allocated in proportion to bids, each agent's bank balance becomes
B' = (1 - alpha) B + income(p), and she re-bids e' = alpha B' in proportion
to x_j * grad_j u(x) on her received bundle. An exchange agent's income is
the revenue of the goods she owns, and total money is conserved at 1. A
Fisher market is the special case alpha = 1 with income equal to the fixed
budget, so B' = e' = budgets exactly.

``_pr_map`` resolves a market's constants (the share rows, alpha, 1 - alpha,
the ownership matrix or the budgets) once, and ``pr_step``, ``lazy_step`` and
the run driver ``_run`` all step through the map it returns. Each iteration of
the driver runs only the map, its BID_FLOOR guard, the writes of p, b and, in
an exchange market, B into the rows of a preallocated block of at most
``BLOCK_ENTRIES`` bids and, when the stop rule has a positive price_tol, the
stop test. The rest is settled once per block from the stacked state: the
stop delta of every step, the budget drift over the bank balances of every
step, recorded or not, and which rows the trace keeps.
Every value is bit-identical to evaluating it step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentSpending,
    InvalidRunControl,
    NonPositiveBid,
    ShapeMismatch,
    UnderflowDetected,
)
from .market import (
    BLOCK_ENTRIES,
    DynamicsTrace,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    TraceBlock,
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
    """Entry check on outside bids; the map keeps its bids >= BID_FLOOR."""
    if bids.shape != (market.n_buyers, market.n_goods):
        raise ShapeMismatch(f"bids shape {bids.shape}, market {market.n_buyers}x{market.n_goods}")
    if not np.all(np.isfinite(bids) & (bids > 0)):
        raise NonPositiveBid("bid matrix must be finite and strictly positive")


def _pr_map(market: MarketSpec):
    """The one PR map of market: step(bids, B, t) returns (p, x, B', e', b'),
    where p and x belong to iteration t. It raises UnderflowDetected when a
    next bid is below BID_FLOOR or NaN."""
    C, R = market.share_rows
    add, smallest = np.add.reduce, np.minimum.reduce
    if market.mode is Mode.FISHER:
        budgets = market.budgets

        def bank(B, p):  # alpha = 1 and a fixed income: B' = e' = budgets
            return budgets, budgets

    else:
        alpha, owner = market.laziness, market.ownership
        keep = 1.0 - alpha

        def bank(B, p):  # the income is the revenue of the owned goods
            B_next = keep * B + owner @ p
            return B_next, alpha * B_next

    def step(bids, B, t):
        p = add(bids, 0)
        x = bids / p
        B_next, e_next = bank(B, p)
        b_next = e_next[:, None] * shares(C, R, x)
        if not smallest(b_next, None) >= BID_FLOOR:
            raise UnderflowDetected(
                f"bid below {BID_FLOOR} or NaN at iteration {t + 1}; "
                "the dynamics is approaching a boundary allocation"
            )
        return p, x, B_next, e_next, b_next

    return step


def pr_step(market: MarketSpec, state: FisherState):
    """One Fisher PR iteration; returns (next_state, prices, allocation), where
    prices and allocation are computed from state.bids."""
    _check_bids(market, state.bids)
    p, x, _, _, b_next = _pr_map(market)(state.bids, None, state.iteration)
    return FisherState(bids=b_next, iteration=state.iteration + 1), p, x


def lazy_step(market: MarketSpec, state: ExchangeState):
    """One lazy-PR iteration; returns (next_state, prices, allocation)."""
    _check_bids(market, state.bids)
    step = _pr_map(market)
    p, x, B_next, e_next, b_next = step(state.bids, state.budgets_B, state.iteration)
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


def _check_spending(market: MarketSpec, B: np.ndarray, e: np.ndarray):
    """Entry check on an outside exchange state: a trace stores B alone and
    derives e = laziness * B, so e must be that bit for bit."""
    if B.shape != (market.n_buyers,) or e.shape != B.shape:
        raise ShapeMismatch(f"budgets_B shape {B.shape}, spend_e shape {e.shape}, "
                            f"market of {market.n_buyers} agents")
    want = market.laziness * B
    bad = np.flatnonzero(want.view(np.uint64) != e.view(np.uint64))
    if bad.size:
        i = bad[0]
        raise InconsistentSpending(
            f"agent {i}: spend_e {float(e[i])!r} is not laziness * budgets_B = {float(want[i])!r}"
        )


def _settle(trace: DynamicsTrace, steps: TraceBlock, start: int, count: int, before,
            record_every: int, done: bool):
    """Block-wise bookkeeping of the steps start .. start + count - 1, whose
    state the first count rows of the block `steps` hold: fill in their
    iterations and stop deltas, widen the budget drift by their bank
    balances, and add to the trace every record_every-th row and, when the
    run is done, the last one. A full block whose rows are all kept joins
    the trace as it is; otherwise its kept rows are copied out, so that the
    trace holds no unused rows. `before` is the stop quantity of the step
    before start, None at the first step of the run. Returns the stop
    quantity of the last step."""
    steps.iteration[:count] = np.arange(start, start + count)
    rows = steps.take(slice(count))
    now = rows.allocation if trace.mode is Mode.EXCHANGE else rows.prices
    diff = np.diff(now, axis=0, prepend=now[:1] if before is None else before[None])
    steps.stop_delta[:count] = np.maximum.reduce(np.abs(diff, out=diff).reshape(count, -1), axis=1)
    if before is None:
        steps.stop_delta[0] = np.inf
    if rows.budgets_B is not None:
        trace.track_budget_drift(rows.budgets_B)
    keep = rows.iteration % record_every == 0
    keep[-1] |= done
    if count == len(steps) and keep.all():
        trace.blocks.append(rows)
    elif keep.any():
        trace.blocks.append(rows.take(keep))
    return now[-1].copy()


def _run(market, bids, B, e, t, stop: StopRule, record_every: int) -> DynamicsTrace:
    """The one run loop for both modes. It stops when the stop quantity
    moves less than stop.price_tol in the infinity norm between successive
    iterations, or after stop.max_iters steps. The stop quantity is the price
    vector in a Fisher market and the allocation in an exchange market. Every
    record_every-th iteration is recorded, plus always the final one."""
    if record_every < 1:
        raise InvalidRunControl(f"record_every must be >= 1, got {record_every}")
    _check_bids(market, bids)
    exchange = market.mode is Mode.EXCHANGE
    if exchange:
        _check_spending(market, B, e)
    step = _pr_map(market)
    tol, end = stop.price_tol, max(t + 1, stop.max_iters)  # steps t .. end - 1
    trace = DynamicsTrace(market.mode)
    size = max(1, BLOCK_ENTRIES // bids.size)
    prev, before, delta = None, None, float("inf")
    while True:
        start, steps = t, TraceBlock.empty(market, min(size, end - t))
        prices, stacked_bids, balances = steps.prices, steps.bids, steps.budgets_B
        for k in range(len(steps)):
            p, x, B_next, _, b_next = step(bids, B, t)
            prices[k], stacked_bids[k] = p, bids
            if exchange:
                balances[k] = B
            bids, B, t = b_next, B_next, t + 1
            if tol:
                now = x if exchange else p
                if prev is not None:
                    delta = float(np.maximum.reduce(np.abs(now - prev), None))
                if delta < tol:
                    break
                prev = now
        done = delta < tol or t == end
        before = _settle(trace, steps, start, t - start, before, record_every, done)
        if done:
            break
    trace.n_steps = t
    trace.stop_reason = "price_tol" if delta < tol else "max_iters"
    return trace


def run_fisher(
    market: MarketSpec,
    b0: np.ndarray,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run Fisher PR from bids b0; the stop quantity is the price vector."""
    bids = np.asarray(b0, dtype=float)
    return _run(market, bids, None, None, 0, stop, record_every)


def run_exchange(
    market: MarketSpec,
    init: ExchangeState,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run lazy PR from init; the stop quantity is the allocation. init's
    spend_e must be laziness * budgets_B bit for bit."""
    return _run(
        market, init.bids, init.budgets_B, init.spend_e, init.iteration, stop, record_every
    )
