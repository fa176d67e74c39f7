"""The run driver against a per-step reference loop over pr_step / lazy_step.

The driver settles budget drift and the stop delta block-wise; the reference
evaluates both at every step, the way the driver did before. Every record
field, the drift, n_steps and the stop reason must match bit for bit.
"""

import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from prdyn import (
    CES,
    DynamicsTrace,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    StopRule,
    default_initial_bids,
    default_initial_exchange,
    lazy_step,
    pr_step,
    run_exchange,
    run_fisher,
    validate_market,
)
from prdyn.cli import generate_market
from prdyn.dynamics import BID_FLOOR
from prdyn.errors import (
    InconsistentSpending,
    NonPositiveBid,
    NonPositiveBudget,
    ShapeMismatch,
    UnderflowDetected,
)
from prdyn.market import BLOCK_ENTRIES
from conftest import FAMILIES, random_fisher_market
from test_exchange import random_exchange_market

N, M = 12, 16
LONG = 1000  # steps of a price_tol = 0 run: several driver blocks at 12 x 16


def mixed_market(mode: str):
    rng = np.random.default_rng(7)
    families = [FAMILIES[i % len(FAMILIES)] for i in range(N)]
    if mode == "fisher":
        return random_fisher_market(families, N, M, rng)
    return random_exchange_market(families, N, M, rng)


def reference_run(market, max_iters, price_tol):
    """One step at a time through the public step functions, recording every
    iteration. Returns (records, budget drift, n_steps, stop reason)."""
    exchange = market.mode is Mode.EXCHANGE
    if exchange:
        state, step = default_initial_exchange(market), lazy_step
    else:
        state, step = FisherState(bids=default_initial_bids(market)), pr_step
    records, drift, prev = [], 0.0, None
    while True:
        t = state.iteration
        next_state, p, x = step(market, state)
        now = x if exchange else p
        delta = float("inf") if prev is None else float(np.max(np.abs(now - prev)))
        record = SimpleNamespace(
            iteration=t, prices=p, bids=state.bids, allocation=x, stop_delta=delta,
            budgets_B=None, spend_e=None,
        )
        if exchange:
            record.budgets_B, record.spend_e = state.budgets_B, state.spend_e
            drift = max(drift, abs(float(state.budgets_B.sum()) - 1.0))
        records.append(record)
        if delta < price_tol:
            return records, drift, t + 1, "price_tol"
        if t + 1 >= max_iters:
            return records, drift, t + 1, "max_iters"
        prev, state = now, next_state


def bits(record):
    arrays = (record.prices, record.bids, record.allocation, record.budgets_B, record.spend_e)
    return (
        record.iteration,
        repr(record.stop_delta),
        *(None if a is None else (a.shape, a.tobytes()) for a in arrays),
    )


@pytest.fixture(scope="module")
def reference():
    """Reference runs keyed by (mode, price_tol), computed once."""
    runs = {}
    for mode in ("fisher", "exchange"):
        market = mixed_market(mode)
        for tol in (0.0, 1e-9):
            runs[mode, tol] = market, reference_run(market, LONG, tol)
    return runs


@pytest.mark.parametrize("price_tol", [0.0, 1e-9])
@pytest.mark.parametrize("record_every", [1, 7, 20000])
@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_driver_matches_per_step_reference(
    reference, monkeypatch, mode, record_every, price_tol
):
    market, (records, drift, n_steps, stop_reason) = reference[mode, price_tol]
    balances = []  # every stack of bank balances the drift is widened by
    track = DynamicsTrace.track_budget_drift

    def tracked(trace, budgets_B):
        balances.append(np.atleast_2d(budgets_B))
        track(trace, budgets_B)

    monkeypatch.setattr(DynamicsTrace, "track_budget_drift", tracked)
    stop = StopRule(max_iters=LONG, price_tol=price_tol)
    if mode == "fisher":
        trace = run_fisher(market, default_initial_bids(market), stop, record_every)
    else:
        trace = run_exchange(market, default_initial_exchange(market), stop, record_every)
    kept = [r for r in records if r.iteration % record_every == 0 or r is records[-1]]
    assert [bits(r) for r in trace.records] == [bits(r) for r in kept]
    assert repr(trace.budget_drift) == repr(drift)
    if mode == "exchange":
        # the drift covers the bank balances of every step, recorded or not
        every_step = np.array([r.budgets_B for r in records])
        assert np.concatenate(balances).tobytes() == every_step.tobytes()
    else:
        assert not balances
    assert (trace.n_steps, trace.stop_reason) == (n_steps, stop_reason)
    if price_tol == 0:
        # the run spans several bookkeeping blocks of the driver
        assert n_steps > 3 * BLOCK_ENTRIES // (N * M)
    else:
        assert stop_reason == "price_tol"


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_price_tol_stop_at_a_block_edge(reference, monkeypatch, mode):
    """The stop test of a block's first step reads the stop quantity of the
    previous block's last step."""
    market, (records, drift, n_steps, stop_reason) = reference[mode, 1e-9]
    assert stop_reason == "price_tol"
    last = n_steps - 1  # the step that stops the run
    _, _, run = stepper(market)
    # blocks of `rows` steps: the stopping step is the only row of its block
    # for rows = 1, its first row for rows = last, its last row for
    # rows = last + 1 and the row after its first for rows = last - 1
    for rows in (1, last - 1, last, last + 1):
        monkeypatch.setattr("prdyn.dynamics.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        for record_every in (1, 7):
            trace = run(StopRule(LONG, 1e-9), record_every)
            kept = [r for r in records if r.iteration % record_every == 0 or r is records[-1]]
            assert [bits(r) for r in trace.records] == [bits(r) for r in kept]
            assert repr(trace.budget_drift) == repr(drift)
            assert (trace.n_steps, trace.stop_reason) == (n_steps, stop_reason)


def tiny_budget_market():
    """A Fisher market whose third buyer's smallest bid decays towards the
    floor and crosses it after several steps."""
    base = random_fisher_market("ces", 3, 4, np.random.default_rng(3))
    return validate_market(
        MarketSpec(3, 4, base.utilities, Mode.FISHER, budgets=np.array([1.0, 1.5, 2.5e-279]))
    )


def first_iteration_below_floor(market) -> int:
    """The first iteration whose bids, by the Fisher PR formula written out
    here, have an entry below BID_FLOOR."""
    C, R = market.share_rows
    bids = default_initial_bids(market)
    for t in range(1, 1000):
        x = bids / bids.sum(axis=0)
        s = C * x**R
        bids = market.budgets[:, None] * (s / s.sum(axis=1, keepdims=True))
        if bids.min() < BID_FLOOR:
            return t
    raise AssertionError("no bid fell below the floor")


@pytest.mark.parametrize("record_every", [1, 7, 20000])
def test_underflow_fires_at_the_reference_iteration(record_every):
    market = tiny_budget_market()
    iteration = first_iteration_below_floor(market)
    assert iteration > 1
    state = FisherState(bids=default_initial_bids(market))
    with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
        while True:
            state, _, _ = pr_step(market, state)
    with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
        run_fisher(market, default_initial_bids(market), StopRule(20000, 0.0), record_every)


def near_linear_market(mode: str):
    """A CES market with every rho = 0.999, whose bids cross BID_FLOOR after
    some 170 steps: 10 x 10 Fisher or 6 x 8 exchange, seed 3."""
    if mode == "fisher":
        market = generate_market(10, 10, "ces", seed=3)
    else:
        market = generate_market(6, 8, "ces", seed=3, mode=Mode.EXCHANGE)
    return replace(market, utilities=tuple(CES(u.weights, 0.999) for u in market.utilities))


def stepper(market):
    """(initial state, step function, run) of market's mode."""
    if market.mode is Mode.EXCHANGE:
        state = default_initial_exchange(market)
        return state, lazy_step, lambda stop, every=1: run_exchange(market, state, stop, every)
    state = FisherState(bids=default_initial_bids(market))
    return state, pr_step, lambda stop, every=1: run_fisher(market, state.bids, stop, every)


def step_loop_underflow(market) -> int:
    """The iteration at which a pr_step / lazy_step loop raises UnderflowDetected."""
    state, step, _ = stepper(market)
    with pytest.raises(UnderflowDetected) as raised:
        for _ in range(20000):
            state, _, _ = step(market, state)
    return int(re.search(r"at iteration (\d+);", str(raised.value))[1])


@pytest.fixture(scope="module")
def crossings():
    """mode -> (near-linear market, the iteration its step loop raises at)."""
    markets = {mode: near_linear_market(mode) for mode in ("fisher", "exchange")}
    return {mode: (market, step_loop_underflow(market)) for mode, market in markets.items()}


@pytest.mark.parametrize("record_every", [1, 7, 20000])
def test_exchange_underflow_fires_at_the_step_loop_iteration(crossings, record_every):
    # the steps the driver takes past the crossing, before its block ends, run
    # on bids below the floor; under the suite's error::RuntimeWarning filter
    # a warning from them would fail the run before the floor check
    market, iteration = crossings["exchange"]
    assert iteration > 1
    _, _, run = stepper(market)
    with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
        run(StopRule(20000, 0.0), record_every)


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_floor_is_checked_through_the_last_step(crossings, mode):
    market, iteration = crossings[mode]
    _, _, run = stepper(market)
    # the last step produces the bids below the floor
    with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
        run(StopRule(iteration, 0.0))
    trace = run(StopRule(iteration - 1, 0.0))
    assert (trace.n_steps, trace.stop_reason) == (iteration - 1, "max_iters")


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_floor_crossing_on_any_row_of_a_block(crossings, monkeypatch, mode):
    market, iteration = crossings[mode]
    _, _, run = stepper(market)
    # blocks of `rows` steps: the crossing step iteration - 1 is the last row
    # of a block for rows = 1 and rows = iteration, the first for
    # iteration - 1 and the next to last for iteration + 1
    for rows in (1, iteration - 1, iteration, iteration + 1):
        monkeypatch.setattr("prdyn.dynamics.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
            run(StopRule(20000, 0.0))


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_steps_leave_inputs_and_earlier_outputs_alone(mode):
    """The map writes into the arrays pr_step and lazy_step allocate: read-only
    inputs are accepted and left as they were, and a later call does not
    write into what an earlier one returned."""
    market = mixed_market(mode)
    state, step, _ = stepper(market)
    fields = ("bids", "budgets_B", "spend_e")

    def arrays(result):
        next_state, p, x = result
        return [p, x] + [getattr(next_state, f) for f in fields if hasattr(next_state, f)]

    inputs = [getattr(state, f) for f in fields if hasattr(state, f)]
    for a in inputs:
        a.flags.writeable = False
    before = [a.tobytes() for a in inputs]
    first = step(market, state)
    first_bits = [a.tobytes() for a in arrays(first)]
    second = step(market, state)
    third = step(market, first[0])
    assert [a.tobytes() for a in inputs] == before
    assert [a.tobytes() for a in arrays(first)] == first_bits
    assert [a.tobytes() for a in arrays(second)] == first_bits
    assert [a.tobytes() for a in arrays(third)] != first_bits


def test_budget_drift_propagates_nan():
    trace = DynamicsTrace(mode=Mode.EXCHANGE)
    trace.track_budget_drift(np.array([0.25, 0.75 + 1e-12]))
    assert trace.budget_drift > 0
    trace.track_budget_drift(np.array([np.nan, 0.5]))
    assert np.isnan(trace.budget_drift)
    trace.track_budget_drift(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert np.isnan(trace.budget_drift)


def test_spending_not_alpha_times_balance_is_refused():
    # A trace stores B alone and derives e = laziness * B, so an initial
    # state whose e differs from that in the last bit could not be recorded.
    market = random_exchange_market("ces", 2, 3, np.random.default_rng(1))
    init = default_initial_exchange(market)
    e = init.spend_e.copy()
    e[1] = np.nextafter(e[1], 1.0)
    bad = ExchangeState(budgets_B=init.budgets_B, spend_e=e, bids=init.bids)
    with pytest.raises(InconsistentSpending, match="agent 1: spend_e"):
        run_exchange(market, bad, StopRule(10))
    zero_bid = init.bids.copy()
    zero_bid[0, 0] = 0.0
    with pytest.raises(NonPositiveBid):  # the bids are checked first
        run_exchange(market, ExchangeState(init.budgets_B, e, zero_bid), StopRule(10))
    assert run_exchange(market, init, StopRule(10)).n_steps == 10


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -5.0])
def test_balance_not_finite_and_positive_is_refused(value):
    # a run from such a B would fail later, with an UnderflowDetected that blames the dynamics
    market = mixed_market("exchange")
    init = default_initial_exchange(market)
    B = init.budgets_B.copy()
    B[3] = value
    bad = ExchangeState(budgets_B=B, spend_e=market.laziness * B, bids=init.bids)
    with pytest.raises(NonPositiveBudget, match="agent 3: budgets_B"):
        run_exchange(market, bad, StopRule(10))
    with pytest.raises(NonPositiveBudget, match="agent 3: budgets_B"):
        lazy_step(market, bad)


def test_balance_of_the_wrong_shape_is_refused():
    market = mixed_market("exchange")
    init = default_initial_exchange(market)
    bad = ExchangeState(budgets_B=init.budgets_B[:3], spend_e=init.spend_e[:3], bids=init.bids)
    with pytest.raises(ShapeMismatch, match=r"budgets_B shape \(3,\), market of 12 agents"):
        run_exchange(market, bad, StopRule(10))
    with pytest.raises(ShapeMismatch, match=r"budgets_B shape \(3,\), market of 12 agents"):
        lazy_step(market, bad)


def test_trace_memory_is_its_stacked_payload():
    """A trace keeps its PR state in stacked blocks: what a run leaves
    allocated is within 1.25 x the bytes of iterations, p, b, B and the
    stop delta, for 2 000 steps of an 8 x 12 exchange market."""
    market = random_exchange_market("ces", 8, 12, np.random.default_rng(501))
    init = default_initial_exchange(market)
    market.share_rows, market.ownership  # cached on the market before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_exchange(market, init, StopRule(2000, 0.0), record_every=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, m, T = market.n_buyers, market.n_goods, len(trace.records)
    assert T == 2000
    payload = 8 * T * (1 + m + n * m + n + 1)
    assert retained <= 1.25 * payload, retained / payload
