import numpy as np
import pytest

from prdyn import (
    CES,
    CobbDouglas,
    DynamicsTrace,
    StopRule,
    bid_shares,
    check_avg_price_rate,
    check_exchange_potential_decrease,
    check_potential_decrease,
    default_initial_bids,
    default_initial_exchange,
    demand,
    diagnose_fisher,
    exchange_potential,
    equilibrium_exchange_state,
    fisher_potential,
    kl_divergence,
    lemma_33_check,
    lemma_gap,
    run_exchange,
    run_fisher,
    solve_exchange_eq,
    solve_fisher_eq,
    transform_exchange_equilibrium,
)
from prdyn.market import BLOCK_ENTRIES
from prdyn.errors import (
    BoundaryBundle,
    InfeasibleAllocation,
    LengthMismatch,
    ModeMismatch,
    NonConsecutiveTrace,
    NonPositiveEntry,
    NonPositivePrice,
    ShapeMismatch,
)
from conftest import FAMILIES, cobb_douglas_2x2, random_fisher_market, random_utility
from test_exchange import random_exchange_market, symmetric_market


class TestKlDivergence:
    def test_identity(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_unnormalized_may_be_negative(self):
        assert kl_divergence([1.0, 1.0], [2.0, 2.0]) == pytest.approx(2 * np.log(0.5), rel=1e-14)

    def test_direct_value(self):
        expected = 0.75 * np.log(0.75) + 1.25 * np.log(1.25)
        assert kl_divergence([0.75, 1.25], [1.0, 1.0]) == pytest.approx(expected, rel=1e-14)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            kl_divergence([1.0], [1.0, 2.0])
        with pytest.raises(NonPositiveEntry):
            kl_divergence([1.0, 0.0], [1.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonPositiveEntry):
                kl_divergence([1.0, 1.0], [1.0, bad])
            with pytest.raises(NonPositiveEntry):
                kl_divergence([bad, 1.0], [1.0, 1.0])


class TestFisherPotential:
    def test_zero_at_equilibrium(self):
        b = np.array([[0.5, 0.5]])
        assert fisher_potential(b, b) == 0.0

    def test_direct_value(self):
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        got = fisher_potential([[0.5, 0.5]], [[0.25, 0.75]])
        assert got == pytest.approx(expected, rel=1e-14)

    def test_gibbs_nonnegative_with_matching_row_sums(self, rng):
        for _ in range(100):
            n, m = 3, 4
            a = rng.uniform(0.1, 1.0, size=(n, m))
            b = rng.uniform(0.1, 1.0, size=(n, m))
            b *= (a.sum(axis=1) / b.sum(axis=1))[:, None]
            assert fisher_potential(a, b) >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fisher_potential(np.ones((2, 2)), np.ones((2, 3)))


class TestPotentialDecrease:
    def test_cobb_douglas_one_step(self, rng):
        market = cobb_douglas_2x2()
        eq = solve_fisher_eq(market)
        b0 = rng.uniform(0.1, 1.0, size=(2, 2))
        b0 = market.budgets[:, None] * b0 / b0.sum(axis=1, keepdims=True)
        trace = run_fisher(market, b0, StopRule(100, 1e-12))
        report = check_potential_decrease(trace, eq, slack=1e-12)
        assert report.passed
        assert report.potential_series[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_violations_on_long_runs(self, family, rng):
        market = random_fisher_market(family, 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(5000, 1e-13))
        report = check_potential_decrease(trace, eq, slack=1e-9)
        assert report.passed, report.monotone_violations[:3]

    def test_thinned_trace_rejected(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market)
        trace = run_fisher(
            market, default_initial_bids(market), StopRule(50), record_every=10
        )
        with pytest.raises(NonConsecutiveTrace):
            check_potential_decrease(trace, eq)

    def test_repeated_block_rejected(self, rng):
        # each block alone starts at iteration 0 and counts up by one
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market)
        block = run_fisher(market, default_initial_bids(market), StopRule(50)).blocks[0]
        twice = DynamicsTrace(market.mode, [block, block])
        assert not twice.is_consecutive()
        for check in (lambda: check_potential_decrease(twice, eq),
                      lambda: check_avg_price_rate(twice, eq, block.bids[0]),
                      lambda: diagnose_fisher(twice, market, eq)):
            with pytest.raises(NonConsecutiveTrace):
                check()


class TestAvgPriceRate:
    def test_at_equilibrium_lhs_zero(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, eq.b_star, StopRule(100, 1e-13))
        series = check_avg_price_rate(trace, eq, eq.b_star)
        for _, lhs, rhs in series:
            assert lhs <= rhs + 1e-9
            assert abs(lhs) <= 1e-9

    def test_bound_holds_along_run(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        b0 = default_initial_bids(market)
        trace = run_fisher(market, b0, StopRule(5000, 1e-13))
        for _, lhs, rhs in check_avg_price_rate(trace, eq, b0):
            assert lhs <= rhs + 1e-9

    def test_bound_scales_with_budgets(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        doubled = random_fisher_market("ces", 3, 4, np.random.default_rng(12345))
        object.__setattr__(doubled, "budgets", 2.0 * market.budgets)
        eq1, eq2 = solve_fisher_eq(market, tol=1e-12), solve_fisher_eq(doubled, tol=1e-12)
        b1 = default_initial_bids(market)
        t1 = run_fisher(market, b1, StopRule(200))
        t2 = run_fisher(doubled, 2.0 * b1, StopRule(200))
        s1 = check_avg_price_rate(t1, eq1, b1)
        s2 = check_avg_price_rate(t2, eq2, 2.0 * b1)
        for (a, b) in zip(s1[:50], s2[:50]):
            assert b[1] == pytest.approx(2.0 * a[1], rel=1e-8, abs=1e-12)
            assert b[2] == pytest.approx(2.0 * a[2], rel=1e-8, abs=1e-12)


class TestLemmaGap:
    def test_equal_prices_give_zero(self, rng):
        for k in range(10):
            u = random_utility(FAMILIES[k % 3], 3, rng)
            p = rng.uniform(0.2, 5.0, 3)
            assert lemma_gap(u, p, p, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_cobb_douglas_proportional_prices_closed_form(self):
        # With the budget unscaled, demand at c*p is x/c, so the gap reduces
        # to e*(1 - 1/c - log c), strictly negative for c != 1.
        u = CobbDouglas(weights=[0.5, 0.5])
        p = np.array([1.0, 2.0])
        e = 1.5
        for c in (0.5, 2.0):
            x_p = demand(u, p, e).x
            x_q = demand(u, c * p, e).x
            assert np.allclose(x_q, x_p / c, rtol=1e-13)
            expected = e * (1.0 - 1.0 / c - np.log(c))
            assert expected < 0
            assert lemma_gap(u, p, c * p, e) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nonproportional_sweep(self, family, rng):
        for _ in range(400):
            m = int(rng.integers(2, 5))
            u = random_utility(family, m, rng)
            p = np.exp(rng.uniform(np.log(0.2), np.log(5.0), m))
            q = np.exp(rng.uniform(np.log(0.2), np.log(5.0), m))
            if np.allclose(q / q[0], p / p[0], rtol=1e-6):
                continue
            e = float(rng.uniform(0.5, 2.0))
            assert lemma_gap(u, p, q, e) <= 1e-9

    @pytest.mark.parametrize("p, q", [
        ([1.0, 0.0], [1.0, 2.0]), ([1.0, -2.0], [1.0, 2.0]), ([1.0, 2.0], [0.0, 2.0]),
        ([1.0, 2.0], [1.0, -0.5]),
    ])
    def test_nonpositive_price_rejected(self, p, q):
        with pytest.raises(NonPositivePrice) as raised:
            lemma_gap(CES([1.0, 2.0], 0.5), p, q, 1.0)
        assert "strictly positive prices" in str(raised.value)


class TestLemma33:
    def test_equilibrium_allocation_gives_zero(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-13)
        assert lemma_33_check(market, eq, eq.x_star) == pytest.approx(0.0, abs=1e-8)

    def test_along_trajectory(self, rng):
        market = random_fisher_market("separable_power", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(500, 1e-13))
        for r in trace.records:
            assert lemma_33_check(market, eq, r.allocation) <= 1e-9

    def test_infeasible_allocation_rejected(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market)
        with pytest.raises(InfeasibleAllocation):
            lemma_33_check(market, eq, np.full((3, 4), 1.0 / 3.0) * 1.5)


class TestExchangePotential:
    def test_zero_at_transformed_equilibrium(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        transformed = transform_exchange_equilibrium(market, solve_exchange_eq(market, tol=1e-12))
        state = equilibrium_exchange_state(transformed)
        assert exchange_potential(state, transformed, market.laziness) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_run_nonincreasing(self):
        market = symmetric_market()
        eq = solve_exchange_eq(market, tol=1e-12)
        transformed = transform_exchange_equilibrium(market, eq)
        trace = run_exchange(market, default_initial_exchange(market), StopRule(100))
        report = check_exchange_potential_decrease(trace, transformed, market.laziness)
        assert report.passed

    @pytest.mark.parametrize("family", ["cobb_douglas", "ces"])
    def test_random_run_nonincreasing(self, family, rng):
        market = random_exchange_market(family, 3, 5, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        transformed = transform_exchange_equilibrium(market, eq)
        trace = run_exchange(market, default_initial_exchange(market), StopRule(2000, 1e-13))
        report = check_exchange_potential_decrease(trace, transformed, market.laziness, slack=1e-9)
        assert report.passed, report.monotone_violations[:3]


class TestDiagnoseFisher:
    def test_full_report_passes(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(5000, 1e-12))
        report = diagnose_fisher(trace, market, eq)
        assert report.passed
        assert report.lemma_gap_min <= 1e-9
        assert report.potential_series[-1] < report.potential_series[0]

    def test_exchange_trace_rejected(self):
        market = symmetric_market()
        eq = solve_exchange_eq(market)
        trace = run_exchange(market, default_initial_exchange(market), StopRule(5))
        with pytest.raises(ModeMismatch):
            diagnose_fisher(trace, market, eq)


def _spoiled(market, trace, t, spoil):
    """A trace built through the one constructor from copies of trace's
    stacked arrays, after spoil(arrays, t) damaged their row t."""
    names = ("iteration", "prices", "bids", "stop_delta", "budgets_B")
    arrays = {
        name: None if getattr(trace.blocks[0], name) is None
        else np.concatenate([getattr(block, name) for block in trace.blocks])
        for name in names
    }
    spoil(arrays, t)
    return DynamicsTrace.stacked(market, **arrays)


def _nan_bid(arrays, t):
    arrays["bids"][t, 0, 0] = np.nan


class TestNonFiniteTrace:
    """A non-finite entry in a replayed trace is an error, not a pass."""

    def test_nan_bid_in_fisher_trace(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(300, 0.0))
        trace = _spoiled(market, trace, 150, _nan_bid)
        with pytest.raises(NonPositiveEntry):
            diagnose_fisher(trace, market, eq)

    def test_nan_bid_in_exchange_trace(self, rng):
        market = random_exchange_market("ces", 3, 4, rng)
        transformed = transform_exchange_equilibrium(market, solve_exchange_eq(market, tol=1e-12))
        trace = run_exchange(market, default_initial_exchange(market), StopRule(300, 0.0))
        trace = _spoiled(market, trace, 150, _nan_bid)
        with pytest.raises(NonPositiveEntry):
            check_exchange_potential_decrease(trace, transformed, market.laziness)

    def test_fisher_trace_rejected_by_exchange_check(self, rng):
        market = random_fisher_market("ces", 3, 4, rng)
        trace = run_fisher(market, default_initial_bids(market), StopRule(5))
        exchange = random_exchange_market("ces", 3, 4, rng)
        transformed = transform_exchange_equilibrium(exchange, solve_exchange_eq(exchange))
        with pytest.raises(ModeMismatch):
            check_exchange_potential_decrease(trace, transformed, exchange.laziness)


def _kl(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return np.sum(a * np.log(a / b))


def _violations(excess, slack):
    return [(t, e) for t, e in enumerate(excess) if not e <= slack]


def _assert_same_violations(got, expected):
    assert [t for t, _ in got] == [t for t, _ in expected]
    np.testing.assert_allclose([e for _, e in got], [e for _, e in expected], rtol=1e-12)


def _block_records(market):
    """Records per diagnostics block on this market."""
    return BLOCK_ENTRIES // (market.n_buyers * market.n_goods)


def _pass_gaps(market, eq, trace):
    """The per-row Lemma 3.3 gaps of diagnose_fisher's pass, the last of the
    per-row series it has DynamicsTrace.per_row evaluate, and its report."""
    seen = []
    per_row = DynamicsTrace.per_row

    def spy(self, series):
        seen.append(per_row(self, series))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DynamicsTrace, "per_row", spy)
        report = diagnose_fisher(trace, market, eq)
    (series,) = seen
    return series[:, -1], report


MIXED_8 = ["separable_power", "ces", "cobb_douglas"] * 2 + ["separable_power", "ces"]


class TestBlockSeams:
    """Traces several blocks long against per-record expressions written
    here, so the block seams and the carried running sum are exercised."""

    @pytest.fixture(scope="class")
    def fisher_run(self):
        rng = np.random.default_rng(2024)
        market = random_fisher_market(MIXED_8, 8, 12, rng)
        eq = solve_fisher_eq(market, tol=1e-12)
        trace = run_fisher(market, default_initial_bids(market), StopRule(2500, 0.0))
        assert len(trace.records) > 2 * _block_records(market)
        return market, eq, trace

    @pytest.fixture(scope="class")
    def exchange_run(self):
        rng = np.random.default_rng(2025)
        market = random_exchange_market(MIXED_8, 8, 12, rng)
        transformed = transform_exchange_equilibrium(market, solve_exchange_eq(market, tol=1e-12))
        trace = run_exchange(market, default_initial_exchange(market), StopRule(2500, 0.0))
        assert len(trace.records) > 2 * _block_records(market)
        return market, transformed, trace

    @pytest.mark.parametrize("slack", [1e-9, -1e-7])
    def test_exchange_potential_series(self, exchange_run, slack):
        market, transformed, trace = exchange_run
        w = (1.0 - market.laziness) / market.laziness
        e_star = transformed.e_star
        expected = [
            _kl(transformed.b_star, r.bids) + np.sum(w * e_star * np.log(e_star / r.spend_e))
            for r in trace.records
        ]
        report = check_exchange_potential_decrease(trace, transformed, market.laziness, slack)
        np.testing.assert_allclose(report.potential_series, expected, rtol=1e-12)
        excess = [expected[t + 1] - expected[t] for t in range(len(expected) - 1)]
        _assert_same_violations(report.monotone_violations, _violations(excess, slack))
        # a negative slack turns late, tiny decreases into reported violations
        assert report.passed == (slack > 0)

    @pytest.mark.parametrize("slack", [1e-9, -1e-12])
    def test_fisher_potential_and_price_term(self, fisher_run, slack):
        market, eq, trace = fisher_run
        pot = [_kl(eq.b_star, r.bids) for r in trace.records]
        price = [_kl(eq.p_star, r.prices) for r in trace.records]
        report = check_potential_decrease(trace, eq, slack)
        np.testing.assert_allclose(report.potential_series, pot, rtol=1e-12)
        excess = [pot[t + 1] - (pot[t] - price[t]) for t in range(len(pot) - 1)]
        _assert_same_violations(report.monotone_violations, _violations(excess, slack))
        assert report.passed == (slack > 0)
        assert all(type(t) is int and type(e) is float for t, e in report.monotone_violations)
        assert all(type(v) is float for v in report.potential_series)

    def test_avg_price_bound(self, fisher_run):
        market, eq, trace = fisher_run
        b0 = trace.records[0].bids
        kl0 = _kl(eq.b_star, b0)
        expected, running = [], np.zeros(market.n_goods)
        for T, r in enumerate(trace.records, start=1):
            running = running + r.prices
            expected.append((T, _kl(eq.p_star, running / T), kl0 / T))
        got = check_avg_price_rate(trace, eq, b0)
        assert [T for T, _, _ in got] == [T for T, _, _ in expected]
        np.testing.assert_allclose([g[1:] for g in got], [e[1:] for e in expected], rtol=1e-12)
        report = diagnose_fisher(trace, market, eq)
        assert report.avg_price_bound == got

    def test_lemma_33_gaps(self, fisher_run):
        market, eq, trace = fisher_run
        gaps = []
        for r in trace.records:
            Q = np.array([
                e * bid_shares(u, x) / x
                for u, e, x in zip(market.utilities, market.budgets, r.allocation)
            ])
            gaps.append(np.sum(eq.x_star * eq.p_star * (np.log(eq.p_star) - np.log(Q))))
        got = [lemma_33_check(market, eq, r.allocation) for r in trace.records]
        np.testing.assert_allclose(got, gaps, rtol=1e-12, atol=1e-15)
        report = diagnose_fisher(trace, market, eq)
        assert report.lemma_gap_min == min(got)
        assert report.passed

    @pytest.mark.parametrize("case", ["seams", "price_tol", "one-row-blocks"])
    def test_pass_gaps_are_those_of_lemma_33_check(self, fisher_run, monkeypatch, case):
        """The pass reads row t's corresponding prices as the next row's bids
        over its allocation, and the last row's from corresponding_prices:
        bit for bit the gap lemma_33_check gives each row. The seams trace
        crosses block seams and cycles; the price_tol run's last row goes
        through the kernel; blocks of one row put every row on a seam."""
        market, eq, trace = fisher_run
        if case == "one-row-blocks":
            monkeypatch.setattr("prdyn.market.BLOCK_ENTRIES", market.n_buyers * market.n_goods)
        if case != "seams":
            stop = StopRule(5000, 1e-12) if case == "price_tol" else StopRule(300, 0.0)
            trace = run_fisher(market, default_initial_bids(market), stop)
        assert len(trace.blocks) > 1  # at least one seam
        assert (trace.stop_reason == "price_tol") == (case == "price_tol")
        assert (trace.cycle is not None) == (case != "price_tol")
        assert (max(map(len, trace.blocks)) == 1) == (case == "one-row-blocks")
        got, report = _pass_gaps(market, eq, trace)
        expected = np.array([lemma_33_check(market, eq, r.allocation) for r in trace.records])
        assert got.tobytes() == expected.tobytes()
        assert report.lemma_gap_min == expected.min()

    def test_bad_record_in_second_block(self, fisher_run, exchange_run):
        market, eq, trace = fisher_run
        t = _block_records(market) + 100

        def skip(a, t):
            a["iteration"][t] += 1

        def inflate(a, t):  # x = b / p grows by 1.5
            a["prices"][t] /= 1.5

        def to_boundary(a, t):  # x[0, 0] = 0, with the column still feasible
            a["bids"][t, 1, 0] += a["bids"][t, 0, 0]
            a["bids"][t, 0, 0] = 0.0

        gap = _spoiled(market, trace, t, skip)
        with pytest.raises(NonConsecutiveTrace):
            check_potential_decrease(gap, eq)
        with pytest.raises(NonConsecutiveTrace):
            check_avg_price_rate(gap, eq, trace.records[0].bids)
        with pytest.raises(NonConsecutiveTrace):
            diagnose_fisher(gap, market, eq)
        with pytest.raises(InfeasibleAllocation):
            diagnose_fisher(_spoiled(market, trace, t, inflate), market, eq)
        boundary = _spoiled(market, trace, t, to_boundary)
        with pytest.raises(BoundaryBundle):
            lemma_33_check(market, eq, boundary.records[t].allocation)
        with pytest.raises(NonPositiveEntry):  # the zero bid fails the potential first
            diagnose_fisher(boundary, market, eq)

        x_market, transformed, x_trace = exchange_run
        x_gap = _spoiled(x_market, x_trace, t, skip)
        with pytest.raises(NonConsecutiveTrace):
            check_exchange_potential_decrease(x_gap, transformed, x_market.laziness)
