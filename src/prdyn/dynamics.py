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
the run driver ``_run`` all step through the map it returns. The map writes
into arrays its caller owns, with ``out=`` ufuncs, and allocates nothing.
Each iteration of the driver runs only the map, reading the state from one
row of a preallocated block of at most ``BLOCK_ENTRIES`` bids and writing
its prices into that row and the next state into the row after it (the
first row of the following block, after a block's last row), and,
when the stop rule has a positive price_tol, the stop test. The rest is
settled once per block from the stacked state: the BID_FLOOR check of the
next bids, the stop delta of every step, the budget drift over the bank
balances of every step, recorded or not, and which rows the trace keeps.
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
    """Entry check on outside bids; _check_floor keeps the later ones >= BID_FLOOR."""
    if bids.shape != (market.n_buyers, market.n_goods):
        raise ShapeMismatch(f"bids shape {bids.shape}, market {market.n_buyers}x{market.n_goods}")
    if not np.all(np.isfinite(bids) & (bids > 0)):
        raise NonPositiveBid("bid matrix must be finite and strictly positive")


def _pr_map(market: MarketSpec):
    """The one PR map of market: step(b, B, p, x, B_next, b_next) writes the
    prices p = sum_i b and the allocation x = b / p of the state (b, B), and
    the next state B_next and b_next, into the arrays the caller passes. B and
    B_next are unused in a Fisher market, where they may be None. The outputs
    must not overlap the inputs. The map allocates nothing: its share,
    income and spending scratch belongs to it. It does not check the floor;
    see _check_floor."""
    C, R = market.share_rows
    n, m = C.shape
    add, divide, multiply, power, matmul = np.add, np.divide, np.multiply, np.power, np.matmul
    t, s = np.empty((n, m)), np.empty((n, 1))
    exchange = market.mode is Mode.EXCHANGE
    if not exchange:
        e = market.budgets  # alpha = 1 and a fixed income: B' = e' = budgets
    else:
        alpha, owner, keep = market.laziness, market.ownership, 1.0 - market.laziness
        inc, e = np.empty(n), np.empty(n)
    e_col = e[:, None]

    def step(b, B, p, x, B_next, b_next):
        add.reduce(b, 0, out=p)
        divide(b, p, out=x)
        if exchange:  # the income is the revenue of the owned goods
            multiply(keep, B, out=B_next)
            matmul(owner, p, out=inc)
            add(B_next, inc, out=B_next)
            multiply(alpha, B_next, out=e)
        power(x, R, out=t)
        multiply(C, t, out=t)
        add.reduce(t, -1, keepdims=True, out=s)
        divide(t, s, out=t)
        multiply(e_col, t, out=b_next)

    return step


def _check_floor(next_bids: np.ndarray, t: int):
    """Raise UnderflowDetected at the first of the stacked next bids of the
    steps t, t + 1, ... that has an entry below BID_FLOOR or NaN."""
    smallest = np.minimum.reduce(next_bids, axis=(1, 2))
    low = np.flatnonzero(~(smallest >= BID_FLOOR))
    if low.size:
        raise UnderflowDetected(
            f"bid below {BID_FLOOR} or NaN at iteration {t + int(low[0]) + 1}; "
            "the dynamics is approaching a boundary allocation"
        )


def _one_step(market: MarketSpec, bids: np.ndarray, B, t: int):
    """Step t of the map from outside bids and, in an exchange market, bank
    balances B, into fresh arrays; returns (p, x, B', b')."""
    _check_bids(market, bids)
    p, x, b_next = np.empty(market.n_goods), np.empty_like(bids), np.empty_like(bids)
    B_next = None if B is None else np.empty(market.n_buyers)
    _pr_map(market)(bids, B, p, x, B_next, b_next)
    _check_floor(b_next[None], t)
    return p, x, B_next, b_next


def pr_step(market: MarketSpec, state: FisherState):
    """One Fisher PR iteration; returns (next_state, prices, allocation), where
    prices and allocation are computed from state.bids."""
    p, x, _, b_next = _one_step(market, state.bids, None, state.iteration)
    return FisherState(bids=b_next, iteration=state.iteration + 1), p, x


def lazy_step(market: MarketSpec, state: ExchangeState):
    """One lazy-PR iteration; returns (next_state, prices, allocation)."""
    p, x, B_next, b_next = _one_step(market, state.bids, state.budgets_B, state.iteration)
    next_state = ExchangeState(
        budgets_B=B_next, spend_e=market.laziness * B_next, bids=b_next,
        iteration=state.iteration + 1,
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


def _settle(trace: DynamicsTrace, steps: TraceBlock, now: np.ndarray, start: int, count: int,
            before, record_every: int, done: bool):
    """Block-wise bookkeeping of the steps start .. start + count - 1, whose
    state the first count rows of the block `steps` hold and whose stop
    quantities are the rows of `now`: fill in their iterations and stop
    deltas, widen the budget drift by their bank balances, and add to the
    trace every record_every-th row and, when the run is done, the last one.
    The deltas are written row against row into one fresh array, so the
    block is not copied to prepend `before`. A full block whose rows are all
    kept joins the trace as it is; otherwise its kept rows are copied out,
    so that the trace holds no unused rows. `before` is the stop quantity of
    the step before start, None at the first step of the run. Returns a copy
    of the stop quantity of the last step."""
    steps.iteration[:count] = np.arange(start, start + count)
    rows = steps.take(slice(count))
    diff = np.empty_like(now)
    np.subtract(now[1:], now[:-1], out=diff[1:])
    if before is None:
        diff[0] = np.inf
    else:
        np.subtract(now[0], before, out=diff[0])
    steps.stop_delta[:count] = np.maximum.reduce(np.abs(diff, out=diff).reshape(count, -1), axis=1)
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
    record_every-th iteration is recorded, plus always the final one.

    Step k of a block reads the state in row k of the block and writes its
    prices there and the next state into row k + 1; the last step writes it
    into row 0 of the following block, so no state is copied between blocks.
    The allocations go to one scratch block reused for the whole run. The
    steps run with numpy's floating-point warnings off, and the next bids of
    a block's steps are checked against BID_FLOOR once the block is done:
    the run raises at the same iteration as a step-by-step loop, and nothing
    that follows the crossing is kept."""
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
    steps = TraceBlock.empty(market, min(size, end - t))
    allocation = np.empty((len(steps), *bids.shape))
    steps.bids[0] = bids
    if exchange:
        steps.budgets_B[0] = B
    prev, before, delta = None, None, float("inf")
    with np.errstate(all="ignore"):
        while True:
            start, last = t, len(steps) - 1
            # the last step writes the next state into row 0 of the following
            # block, a block of one row when the run ends with this one
            following = TraceBlock.empty(market, max(1, min(size, end - t - len(steps))))
            prices, stacked_bids, b_end = steps.prices, steps.bids, following.bids[0]
            if exchange:
                balances, B_end = steps.budgets_B, following.budgets_B[0]
            else:  # the Fisher map reads no bank balances
                balances, B_end = [None] * len(steps), None
            for k in range(last + 1):
                if k == last:
                    B_out, b_out = B_end, b_end
                else:
                    B_out, b_out = balances[k + 1], stacked_bids[k + 1]
                x = allocation[k]
                step(stacked_bids[k], balances[k], prices[k], x, B_out, b_out)
                if tol:
                    now = x if exchange else prices[k]
                    if prev is not None:
                        delta = float(np.maximum.reduce(np.abs(now - prev), None))
                    if delta < tol:
                        break
                    prev = now
            count = k + 1
            t = start + count
            _check_floor(stacked_bids[1:count], start)
            _check_floor(b_out[None], t - 1)
            done = delta < tol or t == end
            stops = allocation if exchange else prices
            # the next block overwrites the scratch, so the stop test goes on from a copy
            prev = before = _settle(trace, steps, stops[:count], start, count, before,
                                    record_every, done)
            if done:
                break
            steps = following
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
