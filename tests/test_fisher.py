import numpy as np
import pytest

from prdyn import (
    CES,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    StopRule,
    default_initial_bids,
    lazy_step,
    pr_step,
    run_exchange,
    run_fisher,
    solve_fisher_eq,
    validate_market,
)
from prdyn.errors import NonPositiveBid
from conftest import FAMILIES, cobb_douglas_2x2, random_fisher_market
from test_exchange import symmetric_market


def ces_market(rng, n=3, m=4):
    return random_fisher_market("ces", n, m, rng)


class TestPrStep:
    def test_cobb_douglas_one_step(self, rng):
        market = cobb_douglas_2x2()
        b0 = rng.uniform(0.1, 1.0, size=(2, 2))
        b0 = market.budgets[:, None] * b0 / b0.sum(axis=1, keepdims=True)
        state, _, _ = pr_step(market, FisherState(bids=b0))
        expected = market.budgets[:, None] * np.stack([u.weights for u in market.utilities])
        assert np.max(np.abs(state.bids - expected)) <= 1e-14

    def test_single_buyer_single_good(self):
        market = validate_market(
            MarketSpec(
                n_buyers=1, n_goods=1, utilities=(CES([1.0], 0.5),),
                mode=Mode.FISHER, budgets=[1.0],
            )
        )
        state = FisherState(bids=np.array([[1.0]]))
        for _ in range(3):
            state, p, x = pr_step(market, state)
            assert p[0] == pytest.approx(1.0)
            assert state.bids[0, 0] == pytest.approx(1.0)

    def test_ces_specialized_formula(self, rng):
        market = ces_market(rng)
        b = rng.uniform(0.1, 1.0, size=(3, 4))
        b = market.budgets[:, None] * b / b.sum(axis=1, keepdims=True)
        state, _, x = pr_step(market, FisherState(bids=b))
        for i, u in enumerate(market.utilities):
            t = u.weights * x[i] ** u.rho
            expected = market.budgets[i] * t / t.sum()
            assert np.max(np.abs(state.bids[i] - expected)) <= 1e-14

    def test_nonpositive_bid_rejected(self, rng):
        market, exchange = cobb_douglas_2x2(), symmetric_market()
        for bad in (0.0, np.nan, np.inf):
            bids = np.array([[0.5, 0.5], [bad, 1.0]])
            init = ExchangeState(budgets_B=[0.5, 0.5], spend_e=[0.25, 0.25], bids=bids)
            for call in (
                lambda: pr_step(market, FisherState(bids=bids)),
                lambda: lazy_step(exchange, init),
                lambda: run_fisher(market, bids, StopRule(10)),
                lambda: run_exchange(exchange, init, StopRule(10)),
            ):
                with pytest.raises(NonPositiveBid):
                    call()


class TestStopRule:
    def test_max_iters_zero_rejected(self):
        with pytest.raises(ValueError):
            StopRule(max_iters=0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            StopRule(max_iters=1, price_tol=-1.0)


class TestRunFisher:
    def test_cobb_douglas_two_step_convergence(self, rng):
        market = cobb_douglas_2x2()
        b0 = rng.uniform(0.1, 1.0, size=(2, 2))
        b0 = market.budgets[:, None] * b0 / b0.sum(axis=1, keepdims=True)
        trace = run_fisher(market, b0, StopRule(max_iters=100, price_tol=1e-12))
        assert trace.stop_reason == "price_tol"
        assert trace.records[-1].iteration == 2
        assert np.allclose(trace.records[-1].prices, [0.75, 1.25], rtol=1e-12)

    def test_max_iters_one(self):
        market = cobb_douglas_2x2()
        trace = run_fisher(market, default_initial_bids(market), StopRule(max_iters=1))
        assert trace.stop_reason == "max_iters"
        assert [r.iteration for r in trace.records] == [0]

    def test_records_slice_is_a_list_of_rows(self, rng):
        """A slice of trace.records is the list of those rows, across blocks."""
        market = ces_market(rng)
        trace = run_fisher(market, default_initial_bids(market), StopRule(max_iters=300))
        assert len(trace.blocks) > 2
        records = trace.records
        for rows in (slice(None), slice(5, 250, 7), slice(-3, None), slice(None, None, -1)):
            got = records[rows]
            assert isinstance(got, list)
            assert [r.iteration for r in got] == list(range(300))[rows]
            assert all(np.array_equal(r.bids, records[r.iteration].bids) for r in got)

    def test_record_thinning_keeps_final(self, rng):
        market = ces_market(rng)
        trace = run_fisher(
            market, default_initial_bids(market), StopRule(max_iters=50), record_every=7
        )
        its = [r.iteration for r in trace.records]
        assert its[0] == 0
        assert its[-1] == 49
        assert all(i % 7 == 0 for i in its[:-1])

    def test_matches_equilibrium_oracle(self, rng):
        market = ces_market(rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(20000, 1e-10))
        assert np.max(np.abs(trace.records[-1].prices - eq.p_star)) <= 1e-6


class TestInvariants:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_step_invariants(self, family, rng):
        market = random_fisher_market(family, 4, 5, rng)
        state = FisherState(bids=default_initial_bids(market))
        total = market.budgets.sum()
        for _ in range(50):
            state, p, x = pr_step(market, state)
            assert np.all(state.bids > 0)
            rows = state.bids.sum(axis=1)
            assert np.max(np.abs(rows - market.budgets) / market.budgets) <= 1e-12
            assert np.max(np.abs(x.sum(axis=0) - 1.0)) <= 1e-12
            assert abs(p.sum() - total) / total <= 1e-12

    def test_default_initial_bids(self):
        market = cobb_douglas_2x2()
        b0 = default_initial_bids(market)
        assert np.allclose(b0, 0.5)
        assert np.allclose(b0.sum(axis=1), market.budgets)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equilibrium_is_fixed_point(self, family, rng):
        market = random_fisher_market(family, 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-13)
        state, _, _ = pr_step(market, FisherState(bids=eq.b_star))
        assert np.max(np.abs(state.bids - eq.b_star)) <= 1e-12
