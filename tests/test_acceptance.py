"""End-to-end acceptance suite.

Each test prints one pass/fail line per criterion; run with ``pytest -s
tests/test_acceptance.py`` to see them. Tolerances are fixed here and are not
meant to be tuned.
"""

import json
import time
import zlib

import numpy as np
import pytest

from prdyn import (
    FisherState,
    StopRule,
    check_avg_price_rate,
    check_exchange_potential_decrease,
    check_gs_property,
    check_normal_goods,
    check_potential_decrease,
    default_initial_bids,
    default_initial_exchange,
    demand,
    equilibrium_exchange_state,
    eval_gradient,
    eval_utility,
    lazy_step,
    lemma_33_check,
    lemma_gap,
    pr_step,
    run_exchange,
    run_fisher,
    solve_exchange_eq,
    solve_fisher_eq,
    transform_exchange_equilibrium,
    verify_exchange_equilibrium,
)
from prdyn.cli import generate_market, load_market, main, write_market
from conftest import FAMILIES, random_fisher_market, random_utility
from test_exchange import random_exchange_market

N_SEEDS = 10


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _family_key(family):
    """Stable across processes, unlike hash(), which is salted per process."""
    return zlib.crc32(family.encode())


def _instance_rng(family, seed):
    return np.random.default_rng([_family_key(family), seed])


@pytest.fixture(scope="module")
def fisher_runs():
    """10 seeded instances per family: oracle solution plus a full PR trace."""
    runs = []
    for family in FAMILIES:
        for seed in range(N_SEEDS):
            rng = _instance_rng(family, seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            market = random_fisher_market(family, n, m, rng)
            eq = solve_fisher_eq(market, tol=1e-12)
            b0 = default_initial_bids(market)
            start = time.perf_counter()
            trace = run_fisher(market, b0, StopRule(20000, 1e-12), record_every=1)
            elapsed = time.perf_counter() - start
            runs.append((family, seed, market, eq, b0, trace, elapsed))
    return runs


@pytest.fixture(scope="module")
def exchange_runs():
    """10 seeded exchange instances with converged oracle solutions."""
    runs = []
    for seed in range(N_SEEDS):
        family = ["cobb_douglas", "ces"][seed % 2]
        rng = _instance_rng("exchange-" + family, seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 7))
        market = random_exchange_market(family, n, m, rng)
        eq = solve_exchange_eq(market, tol=1e-12)
        runs.append((family, seed, market, eq))
    return runs


def test_criterion_1_fisher_price_convergence(fisher_runs):
    worst = 0.0
    slowest = 0.0
    for family, seed, market, eq, b0, trace, elapsed in fisher_runs:
        assert eq.converged, (family, seed)
        err = float(np.max(np.abs(trace.records[-1].prices - eq.p_star)))
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
        assert elapsed < 5.0, (family, seed, elapsed)
    report(1, worst <= 1e-6, f"max price error {worst:.3e} (<=1e-6), slowest run {slowest:.2f}s")


def test_criterion_2_fisher_allocation_convergence(fisher_runs):
    worst = 0.0
    for family, seed, market, eq, b0, trace, _ in fisher_runs:
        err = float(np.max(np.abs(trace.records[-1].allocation - eq.x_star)))
        worst = max(worst, err)
    report(2, worst <= 1e-5, f"max allocation error {worst:.3e} (<=1e-5)")


def test_criterion_3_kl_potential_monotone(fisher_runs):
    violations = 0
    for family, seed, market, eq, b0, trace, _ in fisher_runs:
        rep = check_potential_decrease(trace, eq, slack=1e-9)
        violations += len(rep.monotone_violations)
    report(3, violations == 0, f"{violations} step-inequality violations at slack 1e-9")


def test_criterion_4_average_price_rate(fisher_runs):
    worst_excess = -np.inf
    for family, seed, market, eq, b0, trace, _ in fisher_runs:
        for _, lhs, rhs in check_avg_price_rate(trace, eq, b0):
            worst_excess = max(worst_excess, lhs - rhs)
    report(4, worst_excess <= 1e-9, f"max (lhs - rhs) over all prefixes {worst_excess:.3e}")


def test_criterion_5_cobb_douglas_one_step():
    worst_bid = 0.0
    worst_price = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        market = random_fisher_market("cobb_douglas", n, m, rng)
        b0 = rng.uniform(0.05, 1.0, size=(n, m))
        b0 = market.budgets[:, None] * b0 / b0.sum(axis=1, keepdims=True)
        state1, _, _ = pr_step(market, FisherState(bids=b0))
        A = np.stack([u.weights for u in market.utilities])
        expected_bids = market.budgets[:, None] * A
        worst_bid = max(worst_bid, float(np.max(np.abs(state1.bids - expected_bids))))
        _, p2, _ = pr_step(market, state1)
        worst_price = max(worst_price, float(np.max(np.abs(p2 - market.budgets @ A))))
    ok = worst_bid <= 1e-14 and worst_price <= 1e-12
    report(5, ok, f"bid error {worst_bid:.3e} (<=1e-14), price error {worst_price:.3e} (<=1e-12)")


def test_criterion_6_lemma_gap_sweep():
    worst = -np.inf
    worst_eq = 0.0
    for family in FAMILIES:
        rng = np.random.default_rng([6, _family_key(family)])
        for _ in range(400):
            m = int(rng.integers(2, 6))
            u = random_utility(family, m, rng)
            p = np.exp(rng.uniform(np.log(0.2), np.log(5.0), m))
            q = np.exp(rng.uniform(np.log(0.2), np.log(5.0), m))
            if np.allclose(q / q[0], p / p[0], rtol=1e-6):
                continue
            e = float(rng.uniform(0.5, 2.0))
            gap = lemma_gap(u, p, q, e)
            worst = max(worst, gap)
            if np.max(np.abs(demand(u, q, e).x - demand(u, p, e).x)) <= 1e-10:
                worst_eq = max(worst_eq, abs(gap))
        # explicit equality case q = p
        p = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3))
        worst_eq = max(worst_eq, abs(lemma_gap(random_utility(family, 3, rng), p, p, 1.0)))
    ok = worst <= 1e-9 and worst_eq <= 1e-9
    report(6, ok, f"max gap {worst:.3e} (<=1e-9), max |gap| at equal demands {worst_eq:.3e}")


def test_criterion_7_lemma_33_along_trajectories(fisher_runs):
    worst = -np.inf
    for family, seed, market, eq, b0, trace, _ in fisher_runs:
        for r in trace.records:
            worst = max(worst, lemma_33_check(market, eq, r.allocation))
    report(7, worst <= 1e-9, f"max personal-price gap along trajectories {worst:.3e}")


def test_criterion_8_demand_property_suite():
    worst_spend = worst_homog = 0.0
    gs_ok = normal_ok = True
    for family in FAMILIES:
        rng = np.random.default_rng([8, _family_key(family)])
        for _ in range(200):
            m = int(rng.integers(1, 6))
            u = random_utility(family, m, rng)
            p = np.exp(rng.uniform(np.log(0.2), np.log(5.0), m))
            e = float(rng.uniform(0.5, 2.0))
            res = demand(u, p, e)
            worst_spend = max(worst_spend, abs(res.spent - e) / e)
            c = float(rng.uniform(0.1, 10.0))
            worst_homog = max(
                worst_homog, float(np.max(np.abs(demand(u, c * p, c * e).x - res.x)))
            )
            p_hi = p.copy()
            bump = rng.random(m) < 0.5
            p_hi[bump] *= rng.uniform(1.0, 3.0, size=int(bump.sum()))
            gs_ok = gs_ok and check_gs_property(u, p, p_hi, e, tol=1e-10).passed
            normal_ok = normal_ok and check_normal_goods(
                u, p, e, e * float(rng.uniform(1.0, 3.0)), tol=1e-10
            ).passed
    worst_grad = 0.0
    rng = np.random.default_rng(88)
    for k in range(500):
        m = int(rng.integers(1, 7))
        u = random_utility(FAMILIES[k % 3], m, rng)
        x = rng.uniform(0.1, 5.0, m)
        g = eval_gradient(u, x)
        for j in range(m):
            h = 1e-6 * x[j]
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (eval_utility(u, xp) - eval_utility(u, xm)) / (2 * h)
            worst_grad = max(worst_grad, abs(fd - g[j]) / abs(g[j]))
    ok = worst_spend <= 1e-10 and worst_homog <= 1e-10 and gs_ok and normal_ok and worst_grad <= 1e-5
    report(
        8,
        ok,
        f"spend {worst_spend:.2e}, homog {worst_homog:.2e}, GS {gs_ok}, "
        f"normal {normal_ok}, grad-vs-fd {worst_grad:.2e}",
    )


def test_criterion_9_exchange_money_conservation(exchange_runs):
    worst = 0.0
    for family, seed, market, eq in exchange_runs:
        trace = run_exchange(
            market,
            default_initial_exchange(market),
            StopRule(max_iters=20000, price_tol=0.0),
            record_every=20000,
        )
        assert trace.n_steps == 20000
        worst = max(worst, trace.budget_drift)
    report(9, worst <= 1e-10, f"max |sum B - 1| over 10 runs x 20000 iters: {worst:.3e}")


def test_criterion_10_lazy_pr_convergence(exchange_runs):
    worst_x = 0.0
    verify_ok = True
    violations = 0
    for family, seed, market, eq in exchange_runs:
        if not eq.converged:
            continue
        trace = run_exchange(
            market, default_initial_exchange(market), StopRule(20000, 1e-12), record_every=1
        )
        x_final = trace.records[-1].allocation
        worst_x = max(worst_x, float(np.max(np.abs(x_final - eq.x_star))))
        verify_ok = verify_ok and verify_exchange_equilibrium(
            market, x_final, eq.p_star, tol=1e-4
        ).passed
        transformed = transform_exchange_equilibrium(market, eq)
        rep = check_exchange_potential_decrease(trace, transformed, market.laziness, slack=1e-9)
        violations += len(rep.monotone_violations)
    ok = worst_x <= 1e-4 and verify_ok and violations == 0
    report(
        10,
        ok,
        f"max allocation error {worst_x:.3e} (<=1e-4), verifier {verify_ok}, "
        f"{violations} potential violations",
    )


def test_criterion_11_fixed_point_stability(exchange_runs):
    worst_fisher = 0.0
    for seed in range(5):
        family = ["ces", "cobb_douglas"][seed % 2]
        rng = np.random.default_rng([11, seed])
        market = random_fisher_market(family, 3, 4, rng)
        eq = solve_fisher_eq(market, tol=1e-13)
        state, _, _ = pr_step(market, FisherState(bids=eq.b_star))
        worst_fisher = max(worst_fisher, float(np.max(np.abs(state.bids - eq.b_star))))
    worst_exchange = 0.0
    for family, seed, market, eq in exchange_runs[:5]:
        eq13 = solve_exchange_eq(market, tol=1e-13)
        state = equilibrium_exchange_state(transform_exchange_equilibrium(market, eq13))
        nxt, _, _ = lazy_step(market, state)
        drift = max(
            float(np.max(np.abs(nxt.bids - state.bids))),
            float(np.max(np.abs(nxt.budgets_B - state.budgets_B))),
            float(np.max(np.abs(nxt.spend_e - state.spend_e))),
        )
        worst_exchange = max(worst_exchange, drift)
    ok = worst_fisher <= 1e-12 and worst_exchange <= 1e-12
    report(11, ok, f"fisher drift {worst_fisher:.3e}, exchange drift {worst_exchange:.3e} (<=1e-12)")


def test_criterion_12_cli_determinism_and_round_trip(tmp_path):
    ok = True
    for seed in range(5):
        family = FAMILIES[seed % 3]
        mfile = tmp_path / f"m{seed}.json"
        assert main(["gen", "3", "4", family, "--seed", str(seed), "--out", str(mfile)]) == 0
        # config round trip
        spec = load_market(mfile)
        mfile2 = tmp_path / f"m{seed}-rt.json"
        write_market(spec, mfile2)
        ok = ok and mfile.read_bytes() == mfile2.read_bytes()
        # byte-identical artifacts for identical runs
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"run{seed}{name}"
            code = main([
                "run", "--market", str(mfile), "--price-tol", "1e-10",
                "--full-dump", "--diagnostics", "--out", str(out),
            ])
            ok = ok and code == 0
            outs.append(out)
        for artifact in ("trace.csv", "summary.json", "diagnostics.json"):
            ok = ok and (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    report(12, ok, "5 generated configs: round trip + byte-identical artifacts")
