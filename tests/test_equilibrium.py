import numpy as np
import pytest

from prdyn import (
    CES,
    CobbDouglas,
    MarketSpec,
    Mode,
    corresponding_price,
    demand,
    solve_exchange_eq,
    solve_fisher_eq,
    validate_market,
    verify_exchange_equilibrium,
    verify_fisher_equilibrium,
)
from prdyn.errors import ModeMismatch
from conftest import cobb_douglas_2x2, random_fisher_market
from test_exchange import random_exchange_market, symmetric_market


class TestSolveFisher:
    def test_cobb_douglas_closed_form(self):
        market = cobb_douglas_2x2()
        eq = solve_fisher_eq(market)
        assert eq.converged
        assert np.allclose(eq.p_star, [0.75, 1.25], rtol=1e-14)
        expected_x = np.array([[0.5 / 0.75, 0.5 / 1.25], [0.25 / 0.75, 0.75 / 1.25]])
        assert np.allclose(eq.x_star, expected_x, rtol=1e-13)
        assert np.allclose(eq.x_star.sum(axis=0), 1.0, rtol=1e-13)

    def test_single_buyer(self, rng):
        market = validate_market(
            MarketSpec(
                n_buyers=1, n_goods=1, utilities=(CES([1.0], 0.5),),
                mode=Mode.FISHER, budgets=[1.0],
            )
        )
        eq = solve_fisher_eq(market)
        assert eq.p_star[0] == pytest.approx(1.0, rel=1e-10)
        assert eq.x_star[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_single_buyer_price_is_corresponding_price(self, rng):
        market = random_fisher_market("ces", 1, 3, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        q = corresponding_price(market.utilities[0], eq.x_star[0], market.budgets[0])
        assert np.max(np.abs(q - eq.p_star) / eq.p_star) <= 1e-8

    @pytest.mark.parametrize("family", ["ces", "separable_power"])
    def test_random_instance_residuals(self, family, rng):
        market = random_fisher_market(family, 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-10)
        assert eq.converged
        assert eq.clearing <= 1e-10
        assert verify_fisher_equilibrium(market, eq.x_star, eq.p_star, tol=1e-8).passed

    def test_price_sum_equals_budget_sum(self, rng):
        market = random_fisher_market("ces", 4, 5, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        total = market.budgets.sum()
        assert abs(eq.p_star.sum() - total) / total <= 1e-10

    def test_bid_rows_sum_to_budgets(self, rng):
        market = random_fisher_market("separable_power", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        rows = eq.b_star.sum(axis=1)
        assert np.max(np.abs(rows - market.budgets) / market.budgets) <= 1e-10

    def test_not_converged_reported(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-14, max_iters=2)
        assert not eq.converged

    def test_exchange_market_rejected(self):
        with pytest.raises(ModeMismatch):
            solve_fisher_eq(symmetric_market())


class TestVerifyFisher:
    def test_solver_output_passes(self):
        market = cobb_douglas_2x2()
        eq = solve_fisher_eq(market)
        assert verify_fisher_equilibrium(market, eq.x_star, eq.p_star, tol=1e-10).passed

    def test_perturbed_price_fails(self):
        market = cobb_douglas_2x2()
        eq = solve_fisher_eq(market)
        p_bad = eq.p_star.copy()
        p_bad[0] *= 1.1
        assert not verify_fisher_equilibrium(market, eq.x_star, p_bad, tol=1e-6).passed

    def test_uniform_allocation_fails(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market)
        x_bad = np.full((3, 4), 1.0 / 3.0)
        assert not verify_fisher_equilibrium(market, x_bad, eq.p_star, tol=1e-6).passed


class TestSolveExchange:
    def test_symmetric_two_agents(self):
        market = symmetric_market()
        eq = solve_exchange_eq(market)
        assert eq.converged
        assert np.allclose(eq.p_star, [0.5, 0.5], atol=1e-10)
        assert np.allclose(eq.x_star, 0.5, atol=1e-10)

    def test_autarky(self):
        market = validate_market(
            MarketSpec(
                n_buyers=1, n_goods=2, utilities=(CobbDouglas([0.5, 0.5]),),
                mode=Mode.EXCHANGE, endowments=((0, 1),), laziness=[0.5],
            )
        )
        eq = solve_exchange_eq(market)
        assert eq.converged
        assert np.allclose(eq.x_star, 1.0, atol=1e-9)

    def test_fisher_market_rejected(self):
        with pytest.raises(ModeMismatch):
            solve_exchange_eq(cobb_douglas_2x2())

    def test_three_agent_ces_verifies(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-10)
        assert eq.converged
        assert verify_exchange_equilibrium(market, eq.x_star, eq.p_star, tol=1e-8).passed


class TestVerifyExchange:
    def test_scale_invariance(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        r1 = verify_exchange_equilibrium(market, eq.x_star, eq.p_star, tol=1e-8)
        r7 = verify_exchange_equilibrium(market, eq.x_star, 7.0 * eq.p_star, tol=1e-8)
        assert r1.passed == r7.passed
        assert r1.demand_residual == pytest.approx(r7.demand_residual, abs=1e-12)
        assert r1.oversell == pytest.approx(r7.oversell, abs=1e-12)
        assert r1.undersell == pytest.approx(r7.undersell, abs=1e-12)

    def test_swapped_allocations_fail(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        x_bad = eq.x_star[[1, 0, 2]]
        assert not verify_exchange_equilibrium(market, x_bad, eq.p_star, tol=1e-6).passed
