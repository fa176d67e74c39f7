import numpy as np
import pytest

from prdyn import (
    CES,
    CobbDouglas,
    ExchangeState,
    MarketSpec,
    Mode,
    StopRule,
    default_initial_exchange,
    equilibrium_exchange_state,
    lazy_step,
    run_exchange,
    solve_exchange_eq,
    transform_exchange_equilibrium,
    validate_market,
)
from conftest import buyer_families, random_utility


def symmetric_market():
    return validate_market(
        MarketSpec(
            n_buyers=2,
            n_goods=2,
            utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.5, 0.5])),
            mode=Mode.EXCHANGE,
            endowments=((0,), (1,)),
            laziness=[0.5, 0.5],
        )
    )


def random_exchange_market(family, n, m, rng, alpha_lo=0.3, alpha_hi=0.7):
    utilities = tuple(random_utility(f, m, rng) for f in buyer_families(family, n))
    goods = rng.permutation(m)
    owner = np.empty(m, dtype=int)
    owner[goods[:n]] = np.arange(n)
    owner[goods[n:]] = rng.integers(0, n, size=m - n)
    endow = tuple(tuple(int(j) for j in np.flatnonzero(owner == i)) for i in range(n))
    return validate_market(
        MarketSpec(
            n_buyers=n, n_goods=m, utilities=utilities, mode=Mode.EXCHANGE,
            endowments=endow, laziness=rng.uniform(alpha_lo, alpha_hi, size=n),
        )
    )


class TestLazyStep:
    def test_single_agent_closed_economy(self, rng):
        for alpha in (0.2, 0.5, 0.9):
            market = validate_market(
                MarketSpec(
                    n_buyers=1, n_goods=2,
                    utilities=(CES([1.0, 2.0], 0.5),),
                    mode=Mode.EXCHANGE, endowments=((0, 1),), laziness=[alpha],
                )
            )
            state = default_initial_exchange(market)
            for _ in range(20):
                state, _, _ = lazy_step(market, state)
                assert state.budgets_B[0] == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_orbit_preserved(self):
        market = symmetric_market()
        state = default_initial_exchange(market)
        for _ in range(10):
            state, p, x = lazy_step(market, state)
            assert np.allclose(state.budgets_B, [0.5, 0.5], atol=1e-15)
            assert p[0] == pytest.approx(p[1], abs=1e-15)
            assert np.allclose(x, 0.5, atol=1e-15)

    def test_money_conservation_per_step(self, rng):
        market = random_exchange_market("ces", 3, 5, rng)
        state = default_initial_exchange(market)
        for _ in range(100):
            state, _, _ = lazy_step(market, state)
            assert abs(state.budgets_B.sum() - 1.0) <= 1e-14

    def test_flow_identity(self, rng):
        market = random_exchange_market("ces", 3, 5, rng)
        alpha = market.laziness
        state = default_initial_exchange(market)
        for _ in range(50):
            next_state, p, _ = lazy_step(market, state)
            income = np.array([p[list(g)].sum() for g in market.endowments])
            expected = (1.0 - alpha) * state.spend_e + alpha * income
            assert np.max(np.abs(next_state.spend_e - expected)) <= 1e-12
            state = next_state


class TestDefaultInitial:
    def test_construction(self):
        market = symmetric_market()
        init = default_initial_exchange(market)
        assert np.allclose(init.budgets_B, [0.5, 0.5])
        assert np.allclose(init.bids, 0.125)
        assert init.budgets_B.sum() == 1.0

    def test_single_agent(self):
        market = validate_market(
            MarketSpec(
                n_buyers=1, n_goods=1, utilities=(CobbDouglas([1.0]),),
                mode=Mode.EXCHANGE, endowments=((0,),), laziness=[0.5],
            )
        )
        assert default_initial_exchange(market).budgets_B[0] == 1.0


class TestRunExchange:
    def test_symmetric_stops_immediately(self):
        market = symmetric_market()
        trace = run_exchange(
            market, default_initial_exchange(market), StopRule(1000, 1e-12)
        )
        assert trace.stop_reason == "price_tol"
        assert trace.records[-1].iteration == 1

    def test_max_iters_one(self):
        market = symmetric_market()
        trace = run_exchange(market, default_initial_exchange(market), StopRule(1))
        assert trace.stop_reason == "max_iters"
        assert len(trace.records) == 1

    def test_converges_to_verified_equilibrium(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        assert eq.converged
        trace = run_exchange(
            market, default_initial_exchange(market), StopRule(20000, 1e-12)
        )
        assert np.max(np.abs(trace.records[-1].allocation - eq.x_star)) <= 1e-4

    def test_market_clearing_along_run(self, rng):
        market = random_exchange_market("separable_power", 2, 3, rng)
        trace = run_exchange(market, default_initial_exchange(market), StopRule(200))
        for r in trace.records:
            assert np.max(np.abs(r.allocation.sum(axis=0) - 1.0)) <= 1e-12


class TestFixedPoint:
    @pytest.mark.parametrize("family", ["cobb_douglas", "ces"])
    def test_transformed_equilibrium_is_stationary(self, family, rng):
        market = random_exchange_market(family, 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-13)
        assert eq.converged
        state = equilibrium_exchange_state(transform_exchange_equilibrium(market, eq))
        next_state, _, _ = lazy_step(market, state)
        assert np.max(np.abs(next_state.bids - state.bids)) <= 1e-12
        assert np.max(np.abs(next_state.budgets_B - state.budgets_B)) <= 1e-12
        assert np.max(np.abs(next_state.spend_e - state.spend_e)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("family", ["cobb_douglas", "ces"])
    def test_run_starts_from_the_equilibrium_state_at_any_laziness(self, family, alpha, rng):
        """e* is laziness * B* bit for bit at every laziness, not only at a
        power of two, so run_exchange accepts the equilibrium state, and the
        run stays at it."""
        market = random_exchange_market(family, 3, 4, rng, alpha, alpha)
        eq = solve_exchange_eq(market, tol=1e-13)
        assert eq.converged
        state = equilibrium_exchange_state(transform_exchange_equilibrium(market, eq))
        assert state.spend_e.tobytes() == (market.laziness * state.budgets_B).tobytes()
        trace = run_exchange(market, state, StopRule(50))
        assert trace.n_steps == 50
        for record in trace.records:
            assert np.max(np.abs(record.bids - state.bids)) <= 1e-12
            assert np.max(np.abs(record.budgets_B - state.budgets_B)) <= 1e-12
