import numpy as np
import pytest

from prdyn import (
    CES,
    CobbDouglas,
    SeparablePower,
    check_gs_property,
    check_normal_goods,
    corresponding_price,
    demand,
    eval_gradient,
    eval_utility,
)
from prdyn.errors import (
    BoundaryBundle,
    BudgetNotDominated,
    InvalidRunControl,
    NonPositiveBudget,
    NonPositiveBundle,
    NonPositivePrice,
    PriceNotDominated,
    ToleranceNotReached,
)
from prdyn.demand import corresponding_prices, demand_jacobian, demand_rows, kkt_rows
from prdyn.market import income
from conftest import FAMILIES, random_fisher_market, random_utility
from test_exchange import random_exchange_market


class TestClosedForms:
    def test_ces_example(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)  # sigma = 2
        res = demand(u, [1.0, 2.0], 1.0)
        assert np.allclose(res.x, [2.0 / 3.0, 1.0 / 6.0], rtol=1e-14)
        assert res.spent == pytest.approx(1.0, rel=1e-14)
        # KKT: marginal utility per dollar equalized
        g = eval_gradient(u, res.x)
        assert g[0] / 1.0 == pytest.approx(g[1] / 2.0, rel=1e-12)

    def test_cobb_douglas_spending_shares(self):
        u = CobbDouglas(weights=[0.25, 0.75])
        res = demand(u, [1.0, 1.0], 1.0)
        assert np.allclose(res.x, [0.25, 0.75], rtol=1e-14)

    def test_single_good(self):
        for u in (CobbDouglas([1.0]), CES([2.0], 0.5), SeparablePower([1.0], [0.5])):
            res = demand(u, [2.5], 5.0)
            assert res.x[0] == pytest.approx(2.0, rel=1e-12)

    def test_bad_inputs(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        with pytest.raises(NonPositivePrice):
            demand(u, [1.0, 0.0], 1.0)
        with pytest.raises(NonPositiveBudget):
            demand(u, [1.0, 1.0], 0.0)
        # not finite: refused before the Newton solve, which would run out
        # its steps with RuntimeWarnings and raise ToleranceNotReached
        for value in (np.inf, np.nan):
            with pytest.raises(NonPositivePrice, match="finite and strictly positive"):
                demand(CES([1.0, 2.0], 0.5), [1.0, value], 1.0)
            with pytest.raises(NonPositiveBudget, match="finite and strictly positive"):
                demand(CES([1.0, 2.0], 0.5), [1.0, 1.0], value)


class TestFamilyGradient:
    def test_demand_meets_kkt(self, rng):
        """Demand reads each family through its share row; the family's own
        closed-form gradient checks that row: the bundle spends the budget
        and equalizes grad_j u(x) / p_j across the goods."""
        for k in range(600):
            m = int(rng.integers(1, 7))
            u = random_utility(FAMILIES[k % 3], m, rng)
            p = np.exp(rng.uniform(np.log(0.1), np.log(10.0), m))
            e = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            x = demand(u, p, e).x
            assert abs(p @ x - e) <= 1e-12 * e
            per_dollar = eval_gradient(u, x) / p
            assert np.ptp(per_dollar) <= 1e-12 * per_dollar.max()


class TestTolerance:
    @pytest.mark.parametrize("tol", [np.nan, -0.5])
    def test_tolerance_not_nonnegative_is_refused(self, tol):
        # no spending meets such a tolerance, so Newton would take all of its
        # steps and then report a tolerance it was never given
        with pytest.raises(InvalidRunControl, match="tol must be nonnegative"):
            demand(CES([1.0, 2.0], 0.5), [1.0, 2.0], 1.0, tol=tol)

    def test_zero_tolerance_is_not_reached(self):
        # tol = 0 asks for a spending error of exactly 0; on this bundle
        # Newton ends at an error of rounding size and stops after its steps
        rng = np.random.default_rng(6)
        u = SeparablePower(rng.uniform(0.1, 10.0, 2), rng.uniform(0.2, 0.8, 2))
        p = rng.uniform(0.1, 10.0, 2)
        with pytest.raises(ToleranceNotReached, match="relative tolerance 0.0 in 100 steps"):
            demand(u, p, 1.0, tol=0.0)
        assert abs(demand(u, p, 1.0).spent - 1.0) <= 1e-12


class TestSeparableNumeric:
    def test_symmetric_example(self):
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.5, 0.5])
        res = demand(u, [1.0, 1.0], 1.0)
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-10)
        assert res.lam == pytest.approx(1.0 / (2.0 * np.sqrt(0.5)), rel=1e-9)

    def test_price_ratio_example(self):
        # with rho = 0.5, spending on good j is proportional to 1/p_j
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.5, 0.5])
        res = demand(u, [1.0, 4.0], 1.0)
        assert np.allclose(res.x, [0.8, 0.05], atol=1e-10)

    def test_solver_contract(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            u = random_utility("separable_power", m, rng)
            p = rng.uniform(0.2, 5.0, m)
            e = float(rng.uniform(0.5, 2.0))
            res = demand(u, p, e, tol=1e-12)
            assert abs(res.spent - e) / e <= 1e-12


class TestCorrespondingPrice:
    def test_cobb_douglas(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        q = corresponding_price(u, [0.5, 0.5], 1.0)
        assert np.allclose(q, [1.0, 1.0], rtol=1e-14)

    def test_ces_inverse_of_demand(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        q = corresponding_price(u, [2.0 / 3.0, 1.0 / 6.0], 1.0)
        assert np.allclose(q, [1.0, 2.0], rtol=1e-12)

    def test_single_good_budget_identity(self):
        for u in (CobbDouglas([1.0]), CES([1.0], 0.3), SeparablePower([2.0], [0.7])):
            q = corresponding_price(u, [0.4], 2.0)
            assert q[0] == pytest.approx(5.0, rel=1e-12)

    def test_budget_identity_exact(self, rng):
        for k in range(50):
            m = int(rng.integers(1, 6))
            u = random_utility(FAMILIES[k % 3], m, rng)
            x = rng.uniform(0.1, 2.0, m)
            e = float(rng.uniform(0.5, 2.0))
            q = corresponding_price(u, x, e)
            assert float(q @ x) == pytest.approx(e, rel=1e-13)

    @pytest.mark.parametrize("family", [*FAMILIES, [*FAMILIES, *FAMILIES[:2]]],
                             ids=[*FAMILIES, "mixed"])
    def test_stack_equals_each_bundle(self, rng, family):
        """One call on a (T, n, m) stack of allocations gives every buyer's
        corresponding price bit for bit as corresponding_price does."""
        market = random_fisher_market(family, 5, 7, rng)
        X = rng.uniform(0.05, 1.0, (4, 5, 7))
        Q = corresponding_prices(*market.share_rows, X, market.budgets)
        for t in range(len(X)):
            for i, u in enumerate(market.utilities):
                want = corresponding_price(u, X[t, i], market.budgets[i])
                assert Q[t, i].tobytes() == want.tobytes()

    def test_boundary_rejected(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        with pytest.raises(BoundaryBundle):
            corresponding_price(u, [0.0, 1.0], 1.0)
        for value in (np.inf, np.nan):  # no corresponding price either
            with pytest.raises(NonPositiveBundle, match="finite and strictly positive"):
                corresponding_price(CES([1.0, 2.0], 0.5), [0.5, value], 1.0)

    def test_round_trip(self, rng):
        for k in range(100):
            m = int(rng.integers(1, 6))
            u = random_utility(FAMILIES[k % 3], m, rng)
            x = rng.uniform(0.1, 2.0, m)
            e = float(rng.uniform(0.5, 2.0))
            q = corresponding_price(u, x, e)
            g = eval_gradient(u, x)
            assert np.allclose(q, e * g / (x @ g), rtol=1e-12, atol=0.0)
            back = demand(u, q, e).x
            assert np.max(np.abs(back - x)) <= 1e-8


class TestDemandProperties:
    def test_full_spending(self, rng):
        for k in range(500):
            m = int(rng.integers(1, 6))
            u = random_utility(FAMILIES[k % 3], m, rng)
            p = rng.uniform(0.2, 5.0, m)
            e = float(rng.uniform(0.5, 2.0))
            res = demand(u, p, e)
            assert abs(res.spent - e) / e <= 1e-10

    def test_optimality_against_random_feasible_points(self, rng):
        for k in range(20):
            m = int(rng.integers(2, 5))
            u = random_utility(FAMILIES[k % 3], m, rng)
            p = rng.uniform(0.2, 5.0, m)
            e = float(rng.uniform(0.5, 2.0))
            best = eval_utility(u, demand(u, p, e).x)
            for _ in range(100):
                shares = rng.dirichlet(np.ones(m))
                y = e * shares / p  # random point on the budget simplex
                assert eval_utility(u, y) <= best + 1e-9

    def test_homogeneity_degree_zero(self, rng):
        for k in range(100):
            m = int(rng.integers(1, 6))
            u = random_utility(FAMILIES[k % 3], m, rng)
            p = rng.uniform(0.2, 5.0, m)
            e = float(rng.uniform(0.5, 2.0))
            c = float(rng.uniform(0.1, 10.0))
            x1 = demand(u, p, e).x
            x2 = demand(u, c * p, c * e).x
            assert np.max(np.abs(x1 - x2)) <= 1e-9


class TestGsAndNormalGoods:
    def test_ces_example(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        report = check_gs_property(u, [1.0, 1.0], [1.0, 2.0], 1.0)
        assert report.passed
        assert demand(u, [1.0, 2.0], 1.0).x[0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_equal_prices_trivially_pass(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        assert check_gs_property(u, [1.0, 2.0], [1.0, 2.0], 1.0).passed

    def test_separable_gs(self):
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.5, 0.3])
        assert check_gs_property(u, [1.0, 1.0], [2.0, 1.0], 1.0).passed

    def test_not_dominated_raises(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        with pytest.raises(PriceNotDominated):
            check_gs_property(u, [1.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(BudgetNotDominated):
            check_normal_goods(u, [1.0, 1.0], 2.0, 1.0)

    def test_cobb_douglas_demand_linear_in_budget(self):
        u = CobbDouglas(weights=[0.3, 0.7])
        x1 = demand(u, [1.0, 1.0], 1.0).x
        x2 = demand(u, [1.0, 1.0], 2.0).x
        assert np.allclose(x2, 2.0 * x1, rtol=1e-13)
        assert check_normal_goods(u, [1.0, 1.0], 1.0, 2.0).passed

    def test_separable_normal_goods(self):
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.5, 0.3])
        assert check_normal_goods(u, [1.0, 1.0], 1.0, 1.5).passed

    def test_random_perturbations(self, rng):
        for k in range(200):
            m = int(rng.integers(2, 6))
            u = random_utility(FAMILIES[k % 3], m, rng)
            p = rng.uniform(0.2, 5.0, m)
            e = float(rng.uniform(0.5, 2.0))
            p_hi = p.copy()
            bump = rng.random(m) < 0.5
            p_hi[bump] *= rng.uniform(1.0, 3.0, size=int(bump.sum()))
            assert check_gs_property(u, p, p_hi, e).passed
            assert check_normal_goods(u, p, e, e * float(rng.uniform(1.0, 3.0))).passed


@pytest.mark.parametrize("exchange", [False, True])
def test_demand_jacobian_matches_central_differences(exchange, rng):
    families = [FAMILIES[i % 3] for i in range(4)]
    market = (random_exchange_market(families, 4, 5, rng) if exchange
              else random_fisher_market(families, 4, 5, rng))
    rows = kkt_rows(*market.share_rows)
    p = rng.uniform(0.5, 2.0, 5)

    def z(u):
        q = np.exp(u)
        return demand_rows(rows, q, income(market, q)).sum(axis=0)

    e = income(market, p)
    eps = market.ownership * p / e[:, None] if exchange else 0.0
    J = demand_jacobian(rows, p, demand_rows(rows, p, e), e, eps)
    h = 1e-6
    fd = np.column_stack([(z(np.log(p) + h * d) - z(np.log(p) - h * d)) / (2 * h)
                          for d in np.eye(5)])
    assert np.allclose(J, fd, rtol=1e-6, atol=1e-8)
