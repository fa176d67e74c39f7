"""Proportional response dynamics for Fisher and exchange markets.

One map covers both modes. Prices are the column sums of the bid matrix,
goods are allocated in proportion to bids, each agent's bank balance becomes
B' = (1 - alpha) B + income(p), and she re-bids e' = alpha B' in proportion
to x_j * grad_j u(x) on her received bundle. An exchange agent's income is
the revenue of the goods she owns, and total money is conserved at 1. A
Fisher market is the special case alpha = 1 with income equal to the fixed
budget, so B' = e' = budgets exactly.

``_pr_map`` resolves a market's constants (the share rows, alpha,
1 - alpha, the ownership matrix or the budgets) once and returns the one
block stepper: a loop that takes the PR map, and when the stop rule has a
positive price_tol the stop test, once per row of the sequences it is
given, writing with ``out=`` ufuncs into arrays its caller owns, allocating
nothing and returning the number of steps it took. ``pr_step`` and
``lazy_step`` call it on one row. The run driver ``_run`` calls it once per
preallocated block of steps, and every block it steps has the same rows,
min(``CYCLE_STRIDE``, ``block_rows(market)``): at most 64. This is the one
block schedule. Each step reads the state from one row of the block and
writes its prices into that row and the next state into the row after it
(the first row of the following block, after a block's last row). The rest
is settled once per block from the stacked state: the BID_FLOOR check of
the next bids, the stop delta of every step, on which the run stops, the
budget drift over the bank balances of every step, recorded or not, and
which rows the trace keeps. Every value is bit-identical to evaluating it
step by step.

In float arithmetic the dynamics does more than converge, as the paper
shows for Fisher PR and for lazy-PR allocations: the state (b, B) lands on
an exact cycle and repeats bit for bit, typically with a period of a few
steps: the 45 markets of the benchmark's exchange-long pools (seeds 90001,
24000 and 7) enter it at step 76-197 with period 1-8, and the 12 x 16 mixed
Fisher market of tests/test_dynamics.py has period 6. The map is a pure
function of the bits of (b, B), and it overwrites all of its scratch at
every step, so once s_{k+P} = s_k every later row, bids, bank balances,
prices and allocation, repeats with period P. After each block it stepped,
the driver therefore looks for the state after the block among the block's
rows, bit for bit (``_cycle``). It finds a cycle of period
P <= ``CYCLE_STRIDE`` at the end of the first block that ends at or after
onset + P, so within ``CYCLE_STRIDE`` steps of onset + P at any onset; a
cycle of a longer period is stepped through. No run has shown one: of 300
runs of 20 000 steps at price_tol 0 (shapes 2 x 3 to 20 x 24, the three
families, both modes, seeds 0-2, each also with every rho or exponent at
0.99), 286 entered a cycle of period 1-24 and 14 exchange runs at 0.99
repeated no state. A run of those 45 markets steps 128-256 rows, where it
stepped a whole first block of 1 365 rows (4 x 6) or 341 rows (8 x 12) when
the cycle was looked for only after full blocks. When it finds the cycle,
it steps no more (``_repeat``): the step after the block is P steps after
the cycle's first, so it starts the cycle again, and the cycle's P rows of
the stepped block, with the cycle's stop deltas, are tiled once
(``tile_cycle``) into one read-only buffer of the whole cycles that fit in
a trace block of ``block_rows`` rows. Every later block of the trace is a
TraceBlock of views of that buffer's first rows, with an iteration array of
its own. Those blocks take no floor check, no stop-delta pass and no
budget-drift read: each of their rows is a row of the cycle, checked and
settled when it was stepped, so none of them can change a result. It does
not repeat the cycle when a step of the cycle moves the stop quantity by
less than price_tol: stepping on then stops the run within P steps. So a
run that cycles with a period P <= ``CYCLE_STRIDE`` steps fewer than
onset + P + ``CYCLE_STRIDE`` steps; its later rows are the stepped ones bit
for bit, and its trace holds the stepped rows, at most one block of the
cycle and an iteration per row. The trace records the cycle as
``DynamicsTrace.cycle``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InconsistentSpending,
    InvalidRunControl,
    NonPositiveBid,
    NonPositiveBudget,
    ShapeMismatch,
    UnderflowDetected,
)
from .market import (
    DynamicsTrace,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    TraceBlock,
    block_rows,
    budget_drift,
    tile_cycle,
)

# Bids this small are about to leave float range, and past them the
# potential-function bookkeeping is no longer trustworthy. A run reaches them
# on its way to a boundary allocation, and also on near-linear CES markets
# (every rho = 0.999), whose interior equilibrium bids lie below float range.
BID_FLOOR = 1e-280

# The most rows of a stepped block; the module docstring gives the block
# schedule. A 20 000-step exchange-long run took about as long at strides
# 16 to 96, and longer at 128 and 256.
CYCLE_STRIDE = 64


@dataclass(frozen=True)
class StopRule:
    max_iters: int
    price_tol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidRunControl(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.price_tol >= 0:  # a NaN tolerance would never stop a run
            raise InvalidRunControl(f"price_tol must be nonnegative, got {self.price_tol}")


def _check_bids(market: MarketSpec, bids: np.ndarray):
    """Entry check on outside bids; _check_floor keeps the later ones >= BID_FLOOR."""
    if bids.shape != (market.n_buyers, market.n_goods):
        raise ShapeMismatch(f"bids shape {bids.shape}, market {market.n_buyers}x{market.n_goods}")
    if not np.all(np.isfinite(bids) & (bids > 0)):
        raise NonPositiveBid("bid matrix must be finite and strictly positive")


def _pr_map(market: MarketSpec):
    """The one PR map of market, as a block stepper:
    steps(bs, Bs, ps, xs, Bns, bns, tol, prev) -> count takes one
    step per zipped row of its six sequences, in order, until the shortest
    runs out. From the state (b, B) of a row it writes the prices
    p = sum_i b, the allocation x = b / p and the next state B_next and
    b_next into the arrays of that row; a row's b_next may be the next row's
    b, but no output may overlap an input of its own row. In a Fisher
    market the map reads no B and writes no B_next, and those entries may
    be None.

    With tol > 0 each step also takes the stop test: delta is the
    infinity-norm change of the stop quantity (x in an exchange market, p
    in a Fisher market) from prev, that of the step before, which is None
    before a run's first step; the stepper stops after the first step whose
    delta is below tol, not at the end of the block, which would step up to
    a block past the stop. Returns the number of steps taken; the caller
    records the deltas themselves, with _deltas. The stepper allocates
    nothing: its share, income, spending and stop-test scratch belongs to
    it. It does not check the floor; see _check_floor. Its reductions run
    over axis -2 (the price sum) and -1 (the share normaliser): the same
    sums on an (n, m) state, and the right axes for a stack of them."""
    C, R = market.share_rows
    n, m = C.shape
    t, s = np.empty((n, m)), np.empty((n, 1))
    exchange = market.mode is Mode.EXCHANGE
    if not exchange:
        e = market.budgets  # alpha = 1 and a fixed income: B' = e' = budgets
    else:
        alpha, owner, keep = market.laziness, market.ownership, 1.0 - market.laziness
        inc, e = np.empty(n), np.empty(n)
    e_col = e[:, None]
    diff = np.empty((n, m) if exchange else m)

    def steps(bs, Bs, ps, xs, Bns, bns, tol, prev):
        add, divide, multiply, power, matmul = np.add, np.divide, np.multiply, np.power, np.matmul
        total, subtract, absolute, largest = add.reduce, np.subtract, np.absolute, np.maximum.reduce
        count = 0
        for b, B, p, x, B_next, b_next in zip(bs, Bs, ps, xs, Bns, bns):
            count += 1
            total(b, -2, None, p)
            divide(b, p, x)
            if exchange:  # the income is the revenue of the owned goods
                multiply(keep, B, B_next)
                matmul(owner, p, inc)
                add(B_next, inc, B_next)
                multiply(alpha, B_next, e)
            power(x, R, t)
            multiply(C, t, t)
            total(t, -1, None, s, True)
            divide(t, s, t)
            multiply(e_col, t, b_next)
            if tol:
                now = x if exchange else p
                if prev is not None:
                    subtract(now, prev, diff)
                    if largest(absolute(diff, diff), None) < tol:
                        break
                prev = now
        return count

    return steps


def _check_floor(next_bids: np.ndarray, t: int):
    """Raise UnderflowDetected at the first of the stacked next bids of the
    steps t, t + 1, ... that has an entry below BID_FLOOR or NaN."""
    smallest = np.minimum.reduce(next_bids, axis=(1, 2))
    low = np.flatnonzero(~(smallest >= BID_FLOOR))
    if low.size:
        raise UnderflowDetected(
            f"bid below {BID_FLOOR} or NaN at iteration {t + int(low[0]) + 1}; "
            "the bids are leaving float range, as near a boundary allocation "
            "or on a near-linear CES market"
        )


def _one_step(market: MarketSpec, bids: np.ndarray, B, t: int):
    """Step t of the map from outside bids and, in an exchange market, bank
    balances B, both entry-checked, into fresh arrays; returns (p, x, B', b')."""
    _check_bids(market, bids)
    if B is not None:
        _check_balances(market, B)
    p, x, b_next = np.empty(market.n_goods), np.empty_like(bids), np.empty_like(bids)
    B_next = None if B is None else np.empty(market.n_buyers)
    _pr_map(market)((bids,), (B,), (p,), (x,), (B_next,), (b_next,), 0.0, None)
    _check_floor(b_next[None], t)
    return p, x, B_next, b_next


def pr_step(market: MarketSpec, state: FisherState):
    """One Fisher PR iteration; returns (next_state, prices, allocation), where
    prices and allocation are computed from state.bids."""
    p, x, _, b_next = _one_step(market, state.bids, None, state.iteration)
    return FisherState(bids=b_next, iteration=state.iteration + 1), p, x


def lazy_step(market: MarketSpec, state: ExchangeState):
    """One lazy-PR iteration; returns (next_state, prices, allocation). The
    step reads state's bids and budgets_B, not its spend_e."""
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


def _check_balances(market: MarketSpec, B: np.ndarray):
    """Entry check on outside bank balances: one finite, positive B_i per agent."""
    if B.shape != (market.n_buyers,):
        raise ShapeMismatch(f"budgets_B shape {B.shape}, market of {market.n_buyers} agents")
    bad = np.flatnonzero(~(np.isfinite(B) & (B > 0)))
    if bad.size:
        i = bad[0]
        raise NonPositiveBudget(f"agent {i}: budgets_B {float(B[i])!r} is not finite and positive")


def _check_spending(market: MarketSpec, B: np.ndarray, e: np.ndarray):
    """Entry check on an outside exchange state: B must pass _check_balances,
    and as a trace stores B alone and derives e = laziness * B, e must be
    that bit for bit."""
    _check_balances(market, B)
    if e.shape != B.shape:
        raise ShapeMismatch(f"spend_e shape {e.shape}, budgets_B shape {B.shape}")
    want = market.laziness * B
    bad = np.flatnonzero(want.view(np.uint64) != e.view(np.uint64))
    if bad.size:
        i = bad[0]
        raise InconsistentSpending(
            f"agent {i}: spend_e {float(e[i])!r} is not laziness * budgets_B = {float(want[i])!r}"
        )


def _deltas(now: np.ndarray, before) -> np.ndarray:
    """The stop delta of each step whose stop quantities are the rows of
    `now`: the infinity-norm change from the row before, the first row's
    from `before`, the stop quantity of the step before, which is None at a
    run's first step and gives inf. before = now[-1] gives the deltas of a
    cycle, the first step's taken from the last, as the cycle wraps."""
    diff = np.empty_like(now)
    np.subtract(now[1:], now[:-1], out=diff[1:])
    if before is None:
        diff[0] = np.inf
    else:
        np.subtract(now[0], before, out=diff[0])
    return np.maximum.reduce(np.abs(diff, out=diff).reshape(len(now), -1), axis=1)


def _keep(blocks: list, rows: TraceBlock, start: int, full: bool, record_every: int,
          done: bool):
    """Add to blocks the rows of `rows`, the steps start, start + 1, ...,
    whose iteration is a multiple of record_every and, when the run is done,
    the last. When `full`, every row of the arrays `rows` views is a step of
    the run, and a block whose rows are all kept joins the trace as it is;
    otherwise its kept rows are copied out, so that the trace holds no
    unused rows. The copy also frees the last stepped block of a run that
    stops inside it: kept as views, it left the block-sized temporaries of
    the diagnostics that follow without that memory to reuse, and
    fisher-verify ran about 9 % slower."""
    keep = np.zeros(len(rows), bool)
    keep[-start % record_every::record_every] = True
    keep[-1] |= done
    if full and keep.all():
        blocks.append(rows)
    elif keep.any():
        blocks.append(rows.take(keep))


def _cycle(steps: TraceBlock, following: TraceBlock, stops: np.ndarray, tol: float):
    """The exact cycle a run has entered, found from the stepped block
    `steps`, its stop quantities `stops` and the state after it, in row 0 of
    `following`. When that state repeats a row of the block bit for bit, the
    nearest such row k starts a cycle of P = len(steps) - k steps: the map
    is a pure function of the state's bits, so every later row repeats row
    k + (i mod P). Returns k and the stop deltas of the cycle's P steps,
    counting the wrap from its last row back to its first; it copies no row.
    Returns None when no row matches, or when a step of the cycle moves the
    stop quantity by less than tol: stepping on then stops the run within P
    steps."""
    bits = np.uint64
    state = steps.bids.reshape(len(steps), -1).view(bits)
    new = following.bids[0].reshape(-1).view(bits)
    near = np.flatnonzero(state[:, 0] == new[0])  # a repeat has the same first bid
    same = (state[near] == new).all(axis=1)
    if steps.budgets_B is not None:
        same &= (steps.budgets_B[near].view(bits) == following.budgets_B[0].view(bits)).all(axis=1)
    match = near[same]
    if not match.size:
        return None
    k = int(match[-1])
    moves = _deltas(stops[k:], stops[-1])
    return (k, moves) if np.all(moves >= tol) else None


def _repeat(blocks: list, steps: TraceBlock, k: int, moves: np.ndarray, t: int, end: int,
            size: int, record_every: int):
    """Add to blocks the steps t, t + 1, ... up to end - 1 that follow the
    stepped block `steps`, for a run that repeats the block's rows from row k
    on with the stop deltas `moves` that _cycle returned. Step t is
    P = len(moves) steps after the cycle's first, so step t + i is row
    k + i mod P. The cycle's rows and deltas are tiled once, from row k, by
    whole cycles (tile_cycle) into a read-only buffer of the size // P
    cycles that fit in a block of `size` rows, at most end - t rows; every
    block of the tail views the buffer's first rows, so it starts at the
    cycle's first row, and has an iteration array of its own. _keep copies
    out the kept rows of a block whose rows are not all kept. Nothing is
    stepped, floor-checked, given stop deltas or read for the budget drift:
    every row is a row of the cycle, checked and settled when it was
    stepped. Returns the cycle as (onset, period)."""
    period = len(moves)
    count = min(size // period * period, end - t)
    cycle = replace(steps.take(slice(k, None)), stop_delta=moves).map(
        lambda rows: tile_cycle(rows, count))
    B = cycle.budgets_B
    for start in range(t, end, count):
        n = min(count, end - start)
        iteration = np.arange(start, start + n, dtype=float)
        iteration.flags.writeable = False
        block = TraceBlock(iteration, cycle.prices[:n], cycle.bids[:n], cycle.stop_delta[:n],
                           None if B is None else B[:n], cycle.laziness)
        _keep(blocks, block, start, True, record_every, start + n == end)
    return t - period, period


def _run(market, bids, B, e, t, stop: StopRule, record_every: int) -> DynamicsTrace:
    """The one run loop for both modes. It stops when the stop quantity
    moves less than stop.price_tol in the infinity norm between successive
    iterations, or after stop.max_iters steps. The stop quantity is the price
    vector in a Fisher market and the allocation in an exchange market. Every
    record_every-th iteration is recorded, plus always the final one.

    Each block is one call of the stepper, on the block's rows as lists of
    row views, built once per block; the module docstring gives the block
    schedule. Step k of a block reads the state in row k of the block and
    writes its prices there and the next state into row k + 1; the last
    step writes it into row 0 of the following block, so no state is copied
    between blocks. A block with a row of its own for
    the next state would hold that row in the trace too, as a kept block
    joins it as it is: where a block is one row (n * m > BLOCK_ENTRIES / 2,
    200 x 200 for one), that would double the bids the trace holds. The
    stepper returns only the number of steps it took; _deltas then computes
    the block's stop deltas into its stop_delta, with the stepper's
    subtract, abs and max, and the run stops on the last one, so `done`,
    the stop reason and the trace's stop deltas cannot disagree. The
    allocations go to one scratch block, reused for the whole run, so the
    stop quantity of a block's last step goes on into the next block as a
    copy, for the stop test and the stop delta of its first step. The steps
    run with numpy's floating-point warnings off, and the next bids of a
    block's steps are checked against BID_FLOOR once the block is done: the
    run raises at the same iteration as a step-by-step loop, and nothing
    that follows the crossing is kept.
    Once a stepped block shows the exact cycle the run has entered, and no
    step of the cycle stops the run, the rest of the run is views of the
    cycle's rows (_repeat; see the module docstring). The kept blocks, the
    budget drift and the cycle are collected as the run goes, and the trace
    is built from them with one constructor call."""
    if record_every < 1:
        raise InvalidRunControl(f"record_every must be >= 1, got {record_every}")
    _check_bids(market, bids)
    exchange = market.mode is Mode.EXCHANGE
    if exchange:
        _check_spending(market, B, e)
    step_rows = _pr_map(market)
    tol, end = stop.price_tol, max(t + 1, stop.max_iters)  # steps t .. end - 1
    blocks, drift, cycle = [], 0.0, None
    size = min(CYCLE_STRIDE, block_rows(market))
    steps = TraceBlock.empty(market, min(size, end - t))
    allocation = np.empty((len(steps), *bids.shape))
    x_rows = list(allocation)  # the scratch serves every block
    steps.bids[0] = bids
    if exchange:
        steps.budgets_B[0] = B
    prev = None
    with np.errstate(all="ignore"):
        while True:
            start = t
            # the last step writes the next state into row 0 of the following
            # block, a block of one row when the run ends with this one
            following = TraceBlock.empty(market, max(1, min(size, end - t - len(steps))))
            bid_rows = [*steps.bids, following.bids[0]]
            # the Fisher map reads no bank balances
            balance_rows = ([*steps.budgets_B, following.budgets_B[0]] if exchange
                            else [None] * len(bid_rows))
            count = step_rows(bid_rows, balance_rows, steps.prices, x_rows,
                              balance_rows[1:], bid_rows[1:], tol, prev)
            t = start + count
            _check_floor(steps.bids[1:count], start)
            _check_floor(bid_rows[count][None], t - 1)
            stops = (allocation if exchange else steps.prices)[:count]
            steps.iteration[:count] = np.arange(start, t)
            steps.stop_delta[:count] = _deltas(stops, prev)
            stopped = steps.stop_delta[count - 1] < tol
            done = stopped or t == end
            prev = stops[-1].copy()  # the next block overwrites the scratch
            rows = steps.take(slice(count))
            if exchange:
                drift = budget_drift(rows.budgets_B, drift)
            _keep(blocks, rows, start, count == len(steps), record_every, done)
            if done:
                break
            found = _cycle(steps, following, stops, tol)
            if found is not None:  # no step of the cycle stops the run: repeat it, don't step it
                cycle = _repeat(blocks, steps, *found, t, end, block_rows(market), record_every)
                t = end
                break
            steps = following
    stop_reason = "price_tol" if stopped else "max_iters"
    return DynamicsTrace(market.mode, blocks, stop_reason, t, drift, cycle)


def run_fisher(
    market: MarketSpec,
    b0: np.ndarray,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run Fisher PR from bids b0; the stop quantity is the price vector."""
    return _run(market, np.asarray(b0, dtype=float), None, None, 0, stop, record_every)


def run_exchange(
    market: MarketSpec,
    init: ExchangeState,
    stop: StopRule,
    record_every: int = 1,
) -> DynamicsTrace:
    """Run lazy PR from init; the stop quantity is the allocation. init's
    spend_e must be laziness * budgets_B bit for bit."""
    return _run(market, init.bids, init.budgets_B, init.spend_e, init.iteration, stop,
                record_every)
