"""Property-based tests of the bid-share kernel and one dynamics step on
mixed-family markets, of the equilibrium oracle and of demand over all
families (gross substitutes and normal goods included), and of the
potential diagnostics along whole runs. Derandomized, so every process draws
the same instances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prdyn import (
    CES,
    CobbDouglas,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    SeparablePower,
    StopRule,
    check_exchange_potential_decrease,
    check_gs_property,
    check_normal_goods,
    corresponding_price,
    default_initial_bids,
    default_initial_exchange,
    demand,
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
from prdyn.utilities import shares

from conftest import FAMILIES, random_fisher_market
from test_dynamics import assert_matches_reference, bits, reference_run, stepper
from test_equilibrium import assert_verified
from test_exchange import random_exchange_market

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


def _vectors(shape, lo, hi):
    return arrays(np.float64, shape, elements=st.floats(lo, hi))


@st.composite
def _utilities(draw, m):
    family = draw(st.sampled_from(["cobb_douglas", "ces", "separable_power"]))
    w = draw(_vectors(m, 1e-2, 1e2))
    if family == "cobb_douglas":
        return CobbDouglas(weights=w)
    if family == "ces":
        return CES(weights=w, rho=draw(st.floats(0.05, 0.95)))
    return SeparablePower(weights=w, exponents=draw(_vectors(m, 0.05, 0.95)))


@st.composite
def markets(draw, mode):
    """A market with n, m in 1..6 (n <= m in exchange mode, where every agent
    owns a good) and a strictly positive n x m matrix of bid weights."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6 if mode is Mode.FISHER else m))
    utilities = tuple(draw(_utilities(m)) for _ in range(n))
    weights = draw(_vectors((n, m), 1e-3, 1.0))
    if mode is Mode.FISHER:
        spec = MarketSpec(
            n_buyers=n, n_goods=m, utilities=utilities, mode=mode,
            budgets=draw(_vectors(n, 0.1, 10.0)),
        )
    else:
        goods = draw(st.permutations(range(m)))
        owner = list(range(n)) + [draw(st.integers(0, n - 1)) for _ in range(m - n)]
        endow = tuple(tuple(j for j, o in zip(goods, owner) if o == i) for i in range(n))
        spec = MarketSpec(
            n_buyers=n, n_goods=m, utilities=utilities, mode=mode,
            endowments=endow, laziness=draw(_vectors(n, 0.05, 0.95)),
        )
    return validate_market(spec), weights


@PROPERTY
@given(markets(Mode.FISHER))
def test_share_rows_lie_on_the_simplex(drawn):
    market, X = drawn
    S = shares(*market.share_rows, X)
    assert np.all(S > 0)
    assert np.max(np.abs(S.sum(axis=1) - 1.0)) <= 1e-14


@PROPERTY
@given(markets(Mode.FISHER))
def test_fisher_step_spends_the_budgets(drawn):
    market, weights = drawn
    state, _, _ = pr_step(market, FisherState(bids=weights))
    rows = state.bids.sum(axis=1)
    assert np.max(np.abs(rows - market.budgets) / market.budgets) <= 1e-12


@PROPERTY
@given(markets(Mode.EXCHANGE), st.data())
def test_exchange_step_conserves_money(drawn, data):
    market, weights = drawn
    B = data.draw(_vectors(market.n_buyers, 0.1, 1.0))
    B = B / B.sum()
    e = market.laziness * B
    bids = e[:, None] * weights / weights.sum(axis=1, keepdims=True)
    state = ExchangeState(budgets_B=B, spend_e=e, bids=bids)
    next_state, _, _ = lazy_step(market, state)
    assert abs(next_state.budgets_B.sum() - 1.0) <= 1e-12


@PROPERTY
@given(markets(Mode.FISHER))
def test_corresponding_price_spends_the_budget(drawn):
    market, X = drawn
    for u, x, e in zip(market.utilities, X, market.budgets):
        q = corresponding_price(u, x, e)
        assert abs(q @ x - e) <= 1e-12 * e


def _one_buyer_ces(rho):
    """The 1 x 2 CES market on which a fixed-gain price update fails from
    rho = 0.85 on, in the (market, weights) form that markets() draws."""
    utilities = (CES(weights=[1.0, 2.0], rho=rho),)
    return validate_market(MarketSpec(1, 2, utilities, Mode.FISHER, budgets=[1.0])), None


@PROPERTY
@given(st.sampled_from(list(Mode)).flatmap(markets))
@example(_one_buyer_ces(0.85))
@example(_one_buyer_ces(0.875))
@example(_one_buyer_ces(0.95))
@example(_one_buyer_ces(0.99))
def test_oracle_converges_and_verifies(drawn):
    market, _ = drawn
    solve = solve_fisher_eq if market.mode is Mode.FISHER else solve_exchange_eq
    assert_verified(market, solve(market))


@st.composite
def demand_problems(draw, lo=1e-2, hi=1e2):
    """A utility of any family on m in 1..6 goods, prices p and a budget e in
    lo..hi."""
    m = draw(st.integers(1, 6))
    return draw(_utilities(m)), draw(_vectors(m, lo, hi)), draw(st.floats(lo, hi))


@PROPERTY
@given(demand_problems())
def test_demand_spends_the_budget(problem):
    u, p, e = problem
    assert abs(p @ demand(u, p, e).x - e) <= 1e-12 * e


@PROPERTY
@given(demand_problems())
def test_corresponding_price_of_demand_is_the_price(problem):
    # The share kernel is independent of the demand kernel, so this pins one
    # to the other.
    u, p, e = problem
    q = corresponding_price(u, demand(u, p, e).x, e)
    assert np.allclose(q, p, rtol=1e-9, atol=0.0)


@PROPERTY
@given(demand_problems(), st.floats(1e-3, 1e3))
def test_demand_is_homogeneous_of_degree_zero(problem, c):
    u, p, e = problem
    x = demand(u, p, e).x
    assert np.allclose(demand(u, c * p, c * e).x, x, rtol=1e-12, atol=0.0)


@PROPERTY
@given(demand_problems(0.1, 10.0), st.data())
def test_demand_is_gross_substitutes(problem, data):
    # Raising some prices up to 10x never lowers the demand for a good whose
    # price stayed, at the tolerance of acceptance criterion 8.
    u, p, e = problem
    factor = data.draw(_vectors(len(p), 1.0, 10.0))
    raised = data.draw(arrays(np.bool_, len(p)))
    report = check_gs_property(u, p, np.where(raised, p * factor, p), e, tol=1e-10)
    assert report.passed, report.residuals


@PROPERTY
@given(demand_problems(0.1, 10.0), st.floats(1.0, 10.0))
def test_demand_is_normal(problem, c):
    # Raising the budget up to 10x never lowers the demand for any good.
    u, p, e = problem
    report = check_normal_goods(u, p, e, c * e, tol=1e-10)
    assert report.passed, report.residuals


@st.composite
def diagnosed_markets(draw, mode):
    """A mixed-family market with n, m in 1..5 (n <= m in exchange mode,
    where agent 0 has a separable-power utility) from the parameter ranges of
    conftest.random_utility, the ones on which the equilibrium oracle is
    trusted."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5 if mode is Mode.FISHER else m))
    families = draw(st.lists(st.sampled_from(FAMILIES), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mode is Mode.FISHER:
        return random_fisher_market(families, n, m, rng)
    return random_exchange_market(["separable_power"] + families[1:], n, m, rng)


@PROPERTY
@given(diagnosed_markets(Mode.EXCHANGE))
def test_lazy_pr_potential_is_nonincreasing(market):
    eq = solve_exchange_eq(market, tol=1e-12)
    assert eq.converged
    transformed = transform_exchange_equilibrium(market, eq)
    trace = run_exchange(market, default_initial_exchange(market), StopRule(200))
    report = check_exchange_potential_decrease(trace, transformed, market.laziness, slack=1e-9)
    assert report.passed, report.monotone_violations[:3]


@PROPERTY
@given(diagnosed_markets(Mode.FISHER))
def test_fisher_run_passes_diagnostics(market):
    eq = solve_fisher_eq(market, tol=1e-12)
    assert eq.converged
    trace = run_fisher(market, default_initial_bids(market), StopRule(20000, 1e-10))
    assert trace.stop_reason == "price_tol"
    report = diagnose_fisher(trace, market, eq)
    assert report.passed, (report.monotone_violations[:3], report.lemma_gap_min)


@st.composite
def driver_cases(draw):
    """A market of up to 3 x 4 of one family in either mode, a stop rule, a
    record_every and the driver's block rows and cycle stride."""
    mode = draw(st.sampled_from(list(Mode)))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3 if mode is Mode.FISHER else min(3, m)))
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mode is Mode.FISHER:
        market = random_fisher_market(family, n, m, rng)
    else:
        alpha = draw(st.floats(0.05, 0.95))
        market = random_exchange_market(family, n, m, rng, alpha, alpha)
    # sampled_from draws max_iters uniformly; integers() favours small ones
    max_iters = draw(st.sampled_from(range(1, 500)))
    stop = StopRule(max_iters, draw(st.sampled_from([0.0, 1e-300, 1e-13, 1e-9, 1e-4])))
    return market, stop, draw(st.integers(1, 11)), draw(st.integers(1, 69)), draw(st.integers(1, 79))


@settings(PROPERTY, max_examples=300)
@given(driver_cases())
def test_run_driver_matches_the_per_step_reference(case):
    # the stepped blocks of min(CYCLE_STRIDE, block_rows) rows, the cycle
    # tail of block_rows rows, the in-loop stop test and _keep against one
    # pr_step / lazy_step at a time
    market, stop, record_every, rows, stride = case
    reference = reference_run(market, stop.max_iters, stop.price_tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("prdyn.market.BLOCK_ENTRIES", rows * market.n_buyers * market.n_goods)
        patch.setattr("prdyn.dynamics.CYCLE_STRIDE", stride)
        trace = stepper(market)[2](stop, record_every)
    assert_matches_reference(trace, reference, record_every)
    if trace.cycle is not None:  # every later state repeats the cycle's, bit for bit
        onset, period = trace.cycle
        records = reference[0]
        for t in range(onset, len(records)):
            assert bits(records[t])[2:] == bits(records[onset + (t - onset) % period])[2:]
