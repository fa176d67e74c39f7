"""Markets whose buyers mix the three utility families."""

import numpy as np
import pytest

from prdyn import (
    FisherState,
    StopRule,
    default_initial_bids,
    default_initial_exchange,
    eval_gradient,
    lazy_step,
    pr_step,
    run_exchange,
    run_fisher,
    solve_exchange_eq,
    solve_fisher_eq,
    verify_exchange_equilibrium,
)
from conftest import FAMILIES, random_fisher_market
from test_exchange import random_exchange_market


@pytest.mark.parametrize("mode", ["fisher", "exchange"])
def test_mixed_family_market(mode, rng):
    families = [str(f) for f in rng.permutation(FAMILIES * 2)]
    n, m = len(families), 7
    if mode == "fisher":
        market = random_fisher_market(families, n, m, rng)
        state, step = FisherState(bids=default_initial_bids(market)), pr_step
    else:
        market = random_exchange_market(families, n, m, rng)
        state, step = default_initial_exchange(market), lazy_step

    # Each buyer re-bids e_i x_ij g_ij / (x_i . g_i), g the utility's gradient.
    for _ in range(5):
        state, _, x = step(market, state)
        e = market.budgets if mode == "fisher" else state.spend_e
        for i, u in enumerate(market.utilities):
            g = eval_gradient(u, x[i])
            expected = e[i] * x[i] * g / (x[i] @ g)
            assert np.max(np.abs(state.bids[i] - expected)) <= 1e-14

    if mode == "fisher":
        eq = solve_fisher_eq(market, tol=1e-12)
        assert eq.converged
        trace = run_fisher(market, default_initial_bids(market), StopRule(20000, 1e-12))
        final = trace.records[-1]
        assert np.max(np.abs(final.prices - eq.p_star)) <= 1e-6
        assert np.max(np.abs(final.allocation - eq.x_star)) <= 1e-5
    else:
        eq = solve_exchange_eq(market, tol=1e-12)
        assert eq.converged
        trace = run_exchange(market, default_initial_exchange(market), StopRule(20000, 1e-12))
        assert trace.budget_drift <= 1e-10
        report = verify_exchange_equilibrium(
            market, trace.records[-1].allocation, eq.p_star, tol=1e-4
        )
        assert report.passed
