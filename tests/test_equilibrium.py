import re
import zlib

import numpy as np
import pytest

from prdyn import (
    CES,
    CobbDouglas,
    FisherState,
    MarketSpec,
    Mode,
    SeparablePower,
    corresponding_price,
    demand,
    equilibrium_exchange_state,
    lazy_step,
    pr_step,
    solve_exchange_eq,
    solve_fisher_eq,
    transform_exchange_equilibrium,
    validate_market,
    verify_exchange_equilibrium,
    verify_fisher_equilibrium,
)
from prdyn.errors import ModeMismatch, ShapeMismatch
from conftest import FAMILIES, cobb_douglas_2x2, random_fisher_market
from test_exchange import random_exchange_market, symmetric_market


class TestSolveFisher:
    def test_cobb_douglas_closed_form(self):
        # Each Cobb-Douglas buyer spends the fixed shares a of its budget, so
        # p* = budgets @ A; the Newton oracle must reach it.
        market = cobb_douglas_2x2()
        eq = solve_fisher_eq(market)
        assert eq.converged
        assert np.allclose(eq.p_star, [0.75, 1.25], rtol=1e-14)
        expected_x = np.array([[0.5 / 0.75, 0.5 / 1.25], [0.25 / 0.75, 0.75 / 1.25]])
        assert np.allclose(eq.x_star, expected_x, rtol=1e-13)
        assert np.allclose(eq.x_star.sum(axis=0), 1.0, rtol=1e-13)
        rng = np.random.default_rng(31)
        for n, m in [(1, 1), (1, 5), (3, 2), (6, 6), (12, 9), (40, 40)]:
            market = random_fisher_market("cobb_douglas", n, m, rng)
            eq = solve_fisher_eq(market)
            assert eq.converged
            A = np.array([u.weights for u in market.utilities])
            assert np.allclose(eq.p_star, market.budgets @ A, rtol=1e-13, atol=0.0)

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

    @pytest.mark.parametrize("cut", [slice(2), (slice(None), slice(3))], ids=["rows", "columns"])
    def test_allocation_of_the_wrong_shape_rejected(self, rng, cut):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market)
        x = eq.x_star[cut]
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"x shape {x.shape} and p shape (4,), expected (3, 4) and (4,)")):
            verify_fisher_equilibrium(market, x, eq.p_star)


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

    @pytest.mark.parametrize("p", [lambda p: p[:3], lambda p: np.append(p, 0.1), lambda p: p[None]],
                             ids=["short", "long", "2-d"])
    def test_prices_of_the_wrong_shape_rejected(self, rng, p):
        market = random_exchange_market("ces", 3, 4, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        bad = p(eq.p_star)
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"x shape (3, 4) and p shape {bad.shape}, expected (3, 4) and (4,)")):
            verify_exchange_equilibrium(market, eq.x_star, bad)


# ---------------------------------------------------------------------------
# oracle stress set: the oracle converges and verifies on every case
# ---------------------------------------------------------------------------

STRESS_ITERS = 300


def _weights(m, rng, lo=0.1, hi=10.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))


def _family(i, w, rng):
    """Buyer i's utility with weights w; the family cycles with i."""
    if i % 3 == 0:
        return CobbDouglas(w)
    if i % 3 == 1:
        return CES(w, rho=float(rng.uniform(0.2, 0.8)))
    return SeparablePower(w, rng.uniform(0.2, 0.8, size=w.size))


def _ces(rho):
    return lambda i, m, rng: CES(_weights(m, rng), rho)


def _cycled(lo=0.1, hi=10.0):
    return lambda i, m, rng: _family(i, _weights(m, rng, lo, hi), rng)


def _extreme_exponents(i, m, rng):
    return SeparablePower(_weights(m, rng), rng.choice([0.02, 0.98], m))


def _any_family(i, m, rng):
    return _family(int(rng.integers(3)), _weights(m, rng), rng)


# name: (n, m, utility of buyer i, Fisher budget range)
STRESS = {
    "ces_rho_0.02": (3, 4, _ces(0.02), (0.5, 2.0)),
    "ces_rho_0.98": (3, 4, _ces(0.98), (0.5, 2.0)),
    "weights_1e-6_1e6": (3, 4, _cycled(1e-6, 1e6), (0.5, 2.0)),
    "exponents_0.02_0.98": (3, 4, _extreme_exponents, (0.5, 2.0)),
    "one_good_one_agent": (1, 1, _any_family, (0.5, 2.0)),
    "budgets_1e-3_1e3": (4, 4, _cycled(), (1e-3, 1e3)),
}


def stress_market(name, mode, seed):
    n, m, utility, (lo, hi) = STRESS[name]
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    utilities = tuple(utility(i, m, rng) for i in range(n))
    if mode is Mode.FISHER:
        return validate_market(MarketSpec(
            n_buyers=n, n_goods=m, utilities=utilities, mode=mode,
            budgets=_weights(n, rng, lo, hi),
        ))
    goods = rng.permutation(m)
    owner = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])
    endow = tuple(tuple(int(j) for j in goods[owner == i]) for i in range(n))
    return validate_market(MarketSpec(
        n_buyers=n, n_goods=m, utilities=utilities, mode=mode,
        endowments=endow, laziness=np.full(n, 0.5),
    ))


def assert_verified(market, eq):
    """A converged oracle result that passes verify_* at 1e-8."""
    assert eq.converged, (eq.iterations, eq.clearing)
    verify = (verify_fisher_equilibrium if market.mode is Mode.FISHER
              else verify_exchange_equilibrium)
    assert verify(market, eq.x_star, eq.p_star, tol=1e-8).passed


@pytest.mark.parametrize("name", [n for n in STRESS if n != "budgets_1e-3_1e3"])
def test_exchange_oracle_stress(name):
    for seed in range(3):
        market = stress_market(name, Mode.EXCHANGE, seed)
        assert_verified(market, solve_exchange_eq(market, max_iters=STRESS_ITERS))


@pytest.mark.parametrize("name", list(STRESS))
def test_fisher_oracle_stress(name):
    for seed in range(3):
        market = stress_market(name, Mode.FISHER, seed)
        assert_verified(market, solve_fisher_eq(market, max_iters=STRESS_ITERS))


def near_linear_fisher_market(family, seed):
    """3 x 4 Fisher market with CES rho = 0.98, or separable power with
    exponents drawn from {0.02, 0.98}: demand reacts to a price move with
    an elasticity up to 50, which a fixed-gain price update cannot follow."""
    rng = np.random.default_rng(seed)
    utility = _ces(0.98) if family == "ces" else _extreme_exponents
    utilities = tuple(utility(i, 4, rng) for i in range(3))
    return validate_market(MarketSpec(
        n_buyers=3, n_goods=4, utilities=utilities, mode=Mode.FISHER,
        budgets=rng.uniform(0.5, 2.0, 3),
    ))


@pytest.mark.parametrize("family, seed", [("ces", 1), ("separable_power", 9)])
def test_near_linear_markets_converge(family, seed):
    market = near_linear_fisher_market(family, seed)
    assert_verified(market, solve_fisher_eq(market, max_iters=STRESS_ITERS))


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("family", ["separable_power", "mixed"])
def test_oracle_solution_is_a_fixed_point(family, mode):
    # Criterion 11 checks CES and Cobb-Douglas; this covers the other two
    # kinds of market. "mixed" cycles the three families over the buyers.
    for seed in range(5):
        rng = np.random.default_rng([zlib.crc32(f"{family}-{mode.value}".encode()), seed])
        families = family if family != "mixed" else [FAMILIES[i % 3] for i in range(4)]
        if mode is Mode.FISHER:
            market = random_fisher_market(families, 4, 5, rng)
            eq = solve_fisher_eq(market, tol=1e-13)
            assert eq.converged
            state, _, _ = pr_step(market, FisherState(bids=eq.b_star))
            drift = np.max(np.abs(state.bids - eq.b_star))
        else:
            market = random_exchange_market(families, 4, 5, rng)
            eq = solve_exchange_eq(market, tol=1e-13)
            assert eq.converged
            state = equilibrium_exchange_state(transform_exchange_equilibrium(market, eq))
            nxt, _, _ = lazy_step(market, state)
            drift = max(
                np.max(np.abs(nxt.bids - state.bids)),
                np.max(np.abs(nxt.budgets_B - state.budgets_B)),
                np.max(np.abs(nxt.spend_e - state.spend_e)),
            )
        assert drift <= 1e-12, (seed, drift)
