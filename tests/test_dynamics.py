"""The run driver against a per-step reference loop over pr_step / lazy_step.

The driver settles budget drift and the stop delta block-wise, and once the
state repeats bit for bit it repeats the cycle's rows as read-only views
instead of stepping; the reference steps and evaluates both at every step.
Every record field, the drift, n_steps and the stop reason must match bit
for bit.
"""

import dataclasses
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
    check_exchange_potential_decrease,
    default_initial_bids,
    default_initial_exchange,
    diagnose_fisher,
    lazy_step,
    pr_step,
    run_exchange,
    run_fisher,
    solve_exchange_eq,
    solve_fisher_eq,
    transform_exchange_equilibrium,
    validate_market,
)
from prdyn import dynamics
from prdyn.cli import generate_market
from prdyn.dynamics import BID_FLOOR, _cycle, _pr_map
from prdyn.errors import (
    InconsistentSpending,
    InvalidRunControl,
    NonPositiveBid,
    NonPositiveBudget,
    ShapeMismatch,
    UnderflowDetected,
)
from prdyn.market import BLOCK_ENTRIES, TraceBlock, block_rows, budget_drift
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


def assert_matches_reference(trace, reference, record_every):
    """The trace keeps the reference's every record_every-th record and its
    last, bit for bit, with the same drift, n_steps and stop reason."""
    records, drift, n_steps, stop_reason = reference
    kept = [r for r in records if r.iteration % record_every == 0 or r is records[-1]]
    assert [bits(r) for r in trace.records] == [bits(r) for r in kept]
    assert repr(trace.budget_drift) == repr(drift)
    assert (trace.n_steps, trace.stop_reason) == (n_steps, stop_reason)


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
    market, run = reference[mode, price_tol]
    records, _, n_steps, stop_reason = run
    balances = []  # every stack of bank balances the drift is widened by

    def tracked(budgets_B, drift=0.0):
        balances.append(np.atleast_2d(budgets_B))
        return budget_drift(budgets_B, drift)

    monkeypatch.setattr("prdyn.dynamics.budget_drift", tracked)
    stepped = count_steps(monkeypatch)
    stop = StopRule(max_iters=LONG, price_tol=price_tol)
    if mode == "fisher":
        trace = run_fisher(market, default_initial_bids(market), stop, record_every)
    else:
        trace = run_exchange(market, default_initial_exchange(market), stop, record_every)
    assert_matches_reference(trace, run, record_every)
    if mode == "exchange":
        # the drift reads the bank balances of every stepped step, recorded or
        # not; the repeated rows of a cycle are stepped ones, and the drift
        # equals the reference's over every step (assert_matches_reference)
        every_step = np.array([r.budgets_B for r in records[:stepped[0]]])
        assert np.concatenate(balances).tobytes() == every_step.tobytes()
    else:
        assert not balances
    if price_tol == 0:
        # the run spans several bookkeeping blocks of the driver
        assert n_steps > 3 * BLOCK_ENTRIES // (N * M)
    else:
        assert stop_reason == "price_tol"


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_price_tol_stop_at_a_block_edge(reference, monkeypatch, mode):
    """The stop test of a block's first step reads the stop quantity of the
    previous block's last step."""
    market, run_1e9 = reference[mode, 1e-9]
    _, _, n_steps, stop_reason = run_1e9
    assert stop_reason == "price_tol"
    last = n_steps - 1  # the step that stops the run
    _, _, run = stepper(market)
    # blocks of `rows` steps: the stopping step is the only row of its block
    # for rows = 1, its first row for rows = last, its last row for
    # rows = last + 1 and the row after its first for rows = last - 1
    for rows in (1, last - 1, last, last + 1):
        monkeypatch.setattr("prdyn.market.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        for record_every in (1, 7):
            trace = run(StopRule(LONG, 1e-9), record_every)
            assert_matches_reference(trace, run_1e9, record_every)


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
    # stepped blocks of `rows` steps (the stride is set to rows too): the
    # crossing step iteration - 1 is the last row of a block for rows = 1
    # and rows = iteration, the first for iteration - 1 and the next to last
    # for iteration + 1
    for rows in (1, iteration - 1, iteration, iteration + 1):
        monkeypatch.setattr("prdyn.market.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        monkeypatch.setattr("prdyn.dynamics.CYCLE_STRIDE", rows)
        with pytest.raises(UnderflowDetected, match=f"at iteration {iteration};"):
            run(StopRule(20000, 0.0))


# Markets whose state lands on an exact cycle; the periods, measured with
# numpy 2.4 on x86-64, are in the names, and the onsets are at steps 131-167.
CYCLING = {
    "fisher-P1": lambda: generate_market(6, 8, "ces", seed=0),
    "exchange-P1": lambda: generate_market(6, 8, "ces", seed=0, mode=Mode.EXCHANGE),
    "fisher-P2": lambda: generate_market(6, 8, "ces", seed=1),
    "exchange-P2": lambda: generate_market(6, 8, "separable_power", seed=1, mode=Mode.EXCHANGE),
    "exchange-P3": lambda: generate_market(6, 8, "ces", seed=1, mode=Mode.EXCHANGE),
    "fisher-P6": lambda: mixed_market("fisher"),
}
CYCLE_STEPS = 800  # past each onset


def cycle_of(records):
    """(onset, period) of the exact cycle a reference run ends in: the
    smallest P whose state P steps back equals the last, bit for bit, and
    the first step t whose state equals that of t + P."""
    states = [r.bids.tobytes() + (r.budgets_B.tobytes() if r.budgets_B is not None else b"")
              for r in records]
    period = next(P for P in range(1, len(states)) if states[-1 - P] == states[-1])
    onset = len(states) - 1 - period
    while onset and states[onset - 1] == states[onset - 1 + period]:
        onset -= 1
    return onset, period


@pytest.fixture(scope="module")
def cycling():
    """name -> (market, {price_tol: reference run}, onset, period)."""
    runs = {}
    for name, make in CYCLING.items():
        market = make()
        references = {tol: reference_run(market, CYCLE_STEPS, tol) for tol in (0.0, 1e-300)}
        runs[name] = (market, references, *cycle_of(references[0.0][0]))
    return runs


def count_steps(monkeypatch) -> list:
    """Make the driver's stepper count the steps it takes into the returned
    one-item list."""
    stepped = [0]

    def counting(market):
        steps = _pr_map(market)

        def counted(*rows):
            count = steps(*rows)
            stepped[0] += count
            return count

        return counted

    monkeypatch.setattr("prdyn.dynamics._pr_map", counting)
    return stepped


def steps_taken(reference, onset, period, rows) -> int:
    """The steps a run with trace blocks of `rows` rows takes before it
    fills. It steps blocks of min(CYCLE_STRIDE, rows) steps, finds the cycle
    at the end of the first block that ends at or after onset + P when P is
    at most that size, and fills from there on, unless no such block ends
    before the run does, or a step of the cycle stops the run."""
    _, _, n_steps, stop_reason = reference
    size = min(dynamics.CYCLE_STRIDE, rows)
    if stop_reason == "max_iters" and period <= size:
        return min(n_steps, -(-(onset + period) // size) * size)
    return n_steps


@pytest.mark.parametrize("record_every", [1, 7, 20000])
@pytest.mark.parametrize("price_tol", [0.0, 1e-300])
@pytest.mark.parametrize("name", CYCLING)
def test_cycle_fill_matches_per_step_reference(cycling, monkeypatch, name, price_tol, record_every):
    # 1e-300 stops a period-1 cycle, whose stop delta is 0, and lets the
    # others run to max_iters
    market, references, onset, period = cycling[name]
    reference = references[price_tol]
    stepped = count_steps(monkeypatch)
    trace = stepper(market)[2](StopRule(CYCLE_STEPS, price_tol), record_every)
    assert_matches_reference(trace, reference, record_every)
    assert reference[3] == ("price_tol" if price_tol and period == 1 else "max_iters")
    rows = BLOCK_ENTRIES // (market.n_buyers * market.n_goods)
    assert stepped[0] == steps_taken(reference, onset, period, rows)
    if reference[3] == "max_iters":
        assert stepped[0] < CYCLE_STEPS  # the run was filled


@pytest.mark.parametrize("price_tol", [0.0, 1e-300])
@pytest.mark.parametrize("name", CYCLING)
def test_cycle_fill_at_any_row_of_a_block(cycling, monkeypatch, name, price_tol):
    market, references, onset, period = cycling[name]
    _, _, run = stepper(market)
    # stepped and trace blocks of `rows` rows (the stride is set to rows
    # too): the cycle starts on the first row of a block for rows = onset,
    # on the last row for onset + 1, from where its P rows cross into the
    # next block, and is found as a whole block for rows = period; with
    # rows = period - 1 no block holds a whole cycle and every step is taken
    for rows in sorted({onset, onset + 1, period, period - 1} - {0}):
        monkeypatch.setattr("prdyn.market.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        monkeypatch.setattr("prdyn.dynamics.CYCLE_STRIDE", rows)
        stepped = count_steps(monkeypatch)
        trace = run(StopRule(CYCLE_STEPS, price_tol))
        assert_matches_reference(trace, references[price_tol], 1)
        assert stepped[0] == steps_taken(references[price_tol], onset, period, rows)


def late_onset_market():
    """gen 4 6 ces --seed 1 with every rho = 0.99: a Fisher market that
    enters a cycle of period 1 at step 3 695, past its first block_rows
    (1 365) steps."""
    market = generate_market(4, 6, "ces", seed=1)
    return replace(market, utilities=tuple(CES(u.weights, 0.99) for u in market.utilities))


@pytest.fixture(scope="module")
def late_onset():
    """(market, {0.0: reference run}, onset, period) of late_onset_market."""
    market = late_onset_market()
    reference = reference_run(market, 4000, 0.0)
    return market, {0.0: reference}, *cycle_of(reference[0])


@pytest.mark.parametrize("name", [*CYCLING, "fisher-late"])
def test_cycling_run_steps_only_to_its_cycle(cycling, late_onset, monkeypatch, name):
    """A 20 000-step run of a cycling market steps at most its onset, its
    period and CYCLE_STRIDE steps, and copies the rest from the cycle, at
    any onset: fisher-late's lies past its first block_rows steps."""
    market, references, onset, period = {**cycling, "fisher-late": late_onset}[name]
    if name == "fisher-late":
        assert onset > block_rows(market)
    stepped = count_steps(monkeypatch)
    trace = stepper(market)[2](StopRule(20000, 0.0), 20000)
    assert (trace.n_steps, trace.stop_reason) == (20000, "max_iters")
    assert stepped[0] <= onset + period + dynamics.CYCLE_STRIDE
    first, last = trace.records  # the state of step 19 999 is that of the cycle's phase
    same = references[0.0][0][onset + (19999 - onset) % period]
    assert bits(first) == bits(references[0.0][0][0])
    assert bits(last)[2:] == bits(same)[2:]


@pytest.mark.parametrize("name", ["fisher-P2", "exchange-P2", "exchange-P3", "fisher-P6"])
def test_cycle_longer_than_the_stride_is_stepped_through(cycling, monkeypatch, name):
    """With CYCLE_STRIDE below the period no stepped block holds a whole
    cycle: the run finds none and steps every row, the reference's."""
    market, references, _, period = cycling[name]
    monkeypatch.setattr("prdyn.dynamics.CYCLE_STRIDE", period - 1)
    stepped = count_steps(monkeypatch)
    trace = stepper(market)[2](StopRule(CYCLE_STEPS, 0.0))
    assert_matches_reference(trace, references[0.0], 1)
    assert trace.cycle is None
    assert stepped[0] == CYCLE_STEPS


def diagnostics_bits(market, trace):
    """Every field of the market mode's diagnostics report on trace, as repr."""
    if market.mode is Mode.FISHER:
        report = diagnose_fisher(trace, market, solve_fisher_eq(market))
    else:
        transformed = transform_exchange_equilibrium(market, solve_exchange_eq(market))
        report = check_exchange_potential_decrease(trace, transformed, market.laziness)
    return repr(vars(report))


def restacked(market, trace):
    """The rows of trace rebuilt as one stacked trace, which knows no cycle."""
    fields = ("iteration", "prices", "bids", "stop_delta", "budgets_B")
    arrays = [None if getattr(trace.blocks[0], f) is None
              else np.concatenate([getattr(block, f) for block in trace.blocks]) for f in fields]
    return DynamicsTrace.stacked(market, *arrays)


@pytest.mark.parametrize("name", CYCLING)
def test_cycle_diagnostics_equal_those_of_the_stacked_rows(cycling, monkeypatch, name):
    """The diagnostics evaluate a cycling trace up to the end of its first
    period and give later rows the value of their phase: every report field
    equals, bit for bit, that of the same rows evaluated one by one."""
    market, references, onset, period = cycling[name]
    _, _, run = stepper(market)
    # the block edges of test_cycle_fill_at_any_row_of_a_block
    for rows in sorted({onset, onset + 1, period, period - 1} - {0}):
        monkeypatch.setattr("prdyn.market.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        monkeypatch.setattr("prdyn.dynamics.CYCLE_STRIDE", rows)
        trace = run(StopRule(CYCLE_STEPS, 0.0))
        assert (trace.cycle is not None) == (rows >= period)
        plain = restacked(market, trace)
        assert plain.cycle is None
        assert diagnostics_bits(market, trace) == diagnostics_bits(market, plain)


def test_cycling_trace_holds_its_stepped_rows_and_one_cycle_block(monkeypatch):
    """A 20 000-step run of a cycling 8 x 12 exchange market leaves allocated
    at most 1.25 x the bytes of its stepped rows, one block of the cycle's
    rows and 8 B of iteration per row: the blocks after the cycle are
    read-only views of one buffer."""
    market = random_exchange_market("ces", 8, 12, np.random.default_rng(501))
    init = default_initial_exchange(market)
    market.share_rows, market.ownership  # cached on the market before measuring
    stepped = count_steps(monkeypatch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_exchange(market, init, StopRule(20000, 0.0), record_every=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, m, T = market.n_buyers, market.n_goods, len(trace.records)
    assert T == 20000 and stepped[0] < T
    block = BLOCK_ENTRIES // (n * m)
    payload = 8 * (stepped[0] + block) * (1 + m + n * m + n + 1) + 8 * T
    assert retained <= 1.25 * payload, retained / payload
    onset, period = trace.cycle
    tail = [b for b in trace.blocks if b.iteration[0] >= onset + period]
    assert len(tail) >= 2
    for b in tail:
        for a in (b.iteration, b.prices, b.bids, b.stop_delta, b.budgets_B):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    assert np.shares_memory(tail[0].bids, tail[-1].bids)


@pytest.mark.parametrize("name", ["exchange-P3", "fisher-P6"])
def test_cycle_tail_views_one_buffer_of_whole_cycles(name):
    """Every block after the cycle starts at the cycle's first row, so the
    full ones all view the same rows of one buffer, and that buffer holds
    the whole cycles that fit in a block. The block sizes of these markets,
    682 and 170 rows, are not multiples of their periods."""
    market = CYCLING[name]()
    trace = stepper(market)[2](StopRule(20000, 0.0))
    onset, period = trace.cycle
    size = block_rows(market)
    assert size % period
    tail = [b for b in trace.blocks if b.iteration[0] >= onset + period]
    assert len(tail) > 20 and tail[0].iteration[0] == onset + period
    fields = ("prices", "bids", "stop_delta", "budgets_B")

    def addresses(block):
        return [getattr(block, f).__array_interface__["data"][0] for f in fields
                if getattr(block, f) is not None]

    for block in tail:
        if len(block) == len(tail[0]):
            assert addresses(block) == addresses(tail[0])
    assert tail[0].bids.base.size <= size * market.n_buyers * market.n_goods  # bids of a block


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DynamicsTrace)])
def test_trace_is_frozen(field):
    market = mixed_market("exchange")
    driven = stepper(market)[2](StopRule(50, 0.0))
    for trace in (driven, restacked(market, driven)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, field, getattr(trace, field))


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_nan_price_tol_is_refused(mode):
    # delta < nan is never true, so such a run would never stop on its tolerance
    market = mixed_market(mode)
    _, _, run = stepper(market)
    for tol in (np.nan, -1e-12):
        with pytest.raises(InvalidRunControl, match="price_tol must be nonnegative"):
            run(StopRule(500, tol))
    solve = solve_fisher_eq if mode == "fisher" else solve_exchange_eq
    with pytest.raises(InvalidRunControl, match="tol must be nonnegative, got nan"):
        solve(market, tol=np.nan)


def test_an_exchange_state_repeats_only_with_its_bank_balances():
    # the lazy-PR map reads B as well as b: bids that repeat bit for bit
    # start no cycle while a bank balance differs in its last bit
    market = mixed_market("exchange")
    rng = np.random.default_rng(0)
    steps, following = TraceBlock.empty(market, 3), TraceBlock.empty(market, 1)
    for block in (steps, following):
        for a in (block.prices, block.bids, block.budgets_B):
            a[...] = rng.random(a.shape)
    stops = rng.random(steps.bids.shape)
    following.bids[0] = steps.bids[1]
    following.budgets_B[0] = steps.budgets_B[1]
    following.budgets_B[0, 5] = np.nextafter(steps.budgets_B[1, 5], 1.0)
    assert _cycle(steps, following, stops, 0.0) is None
    following.budgets_B[0] = steps.budgets_B[1]
    k, moves = _cycle(steps, following, stops, 0.0)
    assert k == 1
    # the cycle's stop deltas, the first taken from its last row as it wraps
    cycle = stops[1:]
    wrap = np.abs(cycle - cycle[[-1, 0]]).reshape(2, -1).max(axis=1)
    assert moves.tobytes() == wrap.tobytes()


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
    drift = budget_drift(np.array([0.25, 0.75 + 1e-12]))
    assert drift > 0
    drift = budget_drift(np.array([np.nan, 0.5]), drift)
    assert np.isnan(drift)
    drift = budget_drift(np.array([[0.5, 0.5], [0.25, 0.75]]), drift)
    assert np.isnan(drift)


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


def _fisher_bids(cut):
    market = mixed_market("fisher")
    return run_fisher(market, default_initial_bids(market)[cut], StopRule(10))


def _exchange_init(bids=slice(None), spend=slice(None)):
    market = mixed_market("exchange")
    init = default_initial_exchange(market)
    return run_exchange(market, ExchangeState(init.budgets_B, init.spend_e[spend],
                                              init.bids[bids]), StopRule(10))


@pytest.mark.parametrize("run, words", [
    pytest.param(lambda: _fisher_bids(np.s_[:, :-1]), "bids shape (12, 15), market 12x16",
                 id="fisher-bids-too-few-goods"),
    pytest.param(lambda: _fisher_bids(np.s_[:-1]), "bids shape (11, 16), market 12x16",
                 id="fisher-bids-too-few-buyers"),
    pytest.param(lambda: _exchange_init(bids=np.s_[:, :-1]), "bids shape (12, 15), market 12x16",
                 id="exchange-bids"),
    pytest.param(lambda: _exchange_init(spend=np.s_[:3]),
                 "spend_e shape (3,), budgets_B shape (12,)", id="exchange-spend-e"),
])
def test_state_of_the_wrong_shape_is_refused(run, words):
    with pytest.raises(ShapeMismatch) as raised:
        run()
    assert words in str(raised.value)
