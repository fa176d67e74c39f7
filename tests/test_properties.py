"""Property-based tests of the bid-share kernel and one dynamics step on
mixed-family markets. Derandomized, so every process draws the same
instances."""

import numpy as np
from hypothesis import given, settings
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
    corresponding_price,
    lazy_step,
    pr_step,
    validate_market,
)
from prdyn.utilities import shares

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
