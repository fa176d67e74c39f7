"""Potential functions and the convergence inequalities as executable checks.

All potentials are unnormalized KL divergences between positive measures
(equilibrium spending / prices vs. the current iterate). Checks are pure folds
over a trace and never mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .demand import demand
from .equilibrium import EquilibriumResult, TransformedEquilibrium
from .errors import (
    BoundaryBundle,
    InfeasibleAllocation,
    LengthMismatch,
    ModeMismatch,
    NonConsecutiveTrace,
    NonPositiveEntry,
    NonPositivePrice,
    ShapeMismatch,
)
from .market import DynamicsTrace, ExchangeState, MarketSpec, Mode
from .utilities import UtilitySpec, shares

DEFAULT_SLACK = 1e-9


def kl_divergence(a, b) -> float:
    """Unnormalized KL: sum_k a_k log(a_k / b_k). May be negative when the
    masses of a and b differ."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"length {a.size} vs {b.size}")
    if np.any(a <= 0) or np.any(b <= 0):
        raise NonPositiveEntry("kl_divergence requires strictly positive entries")
    return float(np.sum(a * np.log(a / b)))


def fisher_potential(b_star, b_t) -> float:
    """KL between equilibrium and current spending; proper (>= 0) because both
    matrices share the same row sums (the budgets)."""
    b_star = np.asarray(b_star, dtype=float)
    b_t = np.asarray(b_t, dtype=float)
    if b_star.shape != b_t.shape:
        raise ShapeMismatch(f"shape {b_star.shape} vs {b_t.shape}")
    return kl_divergence(b_star, b_t)


@dataclass
class DiagnosticsReport:
    potential_series: List[float] = field(default_factory=list)
    monotone_violations: List[Tuple[int, float]] = field(default_factory=list)
    avg_price_bound: List[Tuple[int, float, float]] = field(default_factory=list)
    lemma_gap_min: float = 0.0
    passed: bool = True


def _require_consecutive(trace: DynamicsTrace):
    if not trace.is_consecutive():
        raise NonConsecutiveTrace("diagnostics need every iteration recorded from t=0")


def check_potential_decrease(
    trace: DynamicsTrace, eq: EquilibriumResult, slack: float = DEFAULT_SLACK
) -> DiagnosticsReport:
    """Per-step inequality KL(b*|b^{t+1}) <= KL(b*|b^t) - KL(p*|p^t)."""
    _require_consecutive(trace)
    report = DiagnosticsReport()
    potentials = [fisher_potential(eq.b_star, r.bids) for r in trace.records]
    report.potential_series = potentials
    for t in range(len(trace.records) - 1):
        price_term = kl_divergence(eq.p_star, trace.records[t].prices)
        excess = potentials[t + 1] - (potentials[t] - price_term)
        if excess > slack:
            report.monotone_violations.append((t, float(excess)))
    report.passed = not report.monotone_violations
    return report


def check_avg_price_rate(
    trace: DynamicsTrace, eq: EquilibriumResult, b0
) -> List[Tuple[int, float, float]]:
    """O(1/T) bound: KL(p* | mean of p^0..p^{T-1}) <= KL(b*|b^0) / T."""
    _require_consecutive(trace)
    kl0 = fisher_potential(eq.b_star, b0)
    prices = trace.price_matrix()
    running = np.cumsum(prices, axis=0) / np.arange(1, len(prices) + 1)[:, None]
    series = []
    for T in range(1, len(prices) + 1):
        lhs = kl_divergence(eq.p_star, running[T - 1])
        rhs = kl0 / T
        series.append((T, lhs, rhs))
    return series


def lemma_gap(u: UtilitySpec, p, q, e: float) -> float:
    """Gap of the gross-substitutes spending inequality; nonpositive for any
    pair of positive price vectors, zero only when the demands coincide."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise NonPositivePrice("lemma_gap requires strictly positive prices")
    x_p = demand(u, p, e).x
    x_q = demand(u, q, e).x
    lhs = float(np.sum(p * x_p * np.log(p / q)))
    rhs = float(np.sum(p * (x_q - x_p)))
    return lhs - rhs


def lemma_33_check(
    market: MarketSpec, eq: EquilibriumResult, alloc, feas_tol: float = 1e-8
) -> float:
    """Personal-price inequality along feasible interior allocations:
    sum_ij x*_ij p*_j (log p*_j - log q_ij) <= 0, where q_i is the
    corresponding price of buyer i's bundle."""
    alloc = np.asarray(alloc, dtype=float)
    col = alloc.sum(axis=0)
    if np.max(np.abs(col - 1.0)) > feas_tol:
        raise InfeasibleAllocation(f"column sums deviate from 1 by {np.max(np.abs(col - 1.0))}")
    if not np.all(alloc > 0):
        raise BoundaryBundle("corresponding prices need a strictly positive allocation")
    Q = market.budgets[:, None] * shares(*market.share_rows, alloc) / alloc
    return float(np.sum(eq.x_star * eq.p_star * (np.log(eq.p_star) - np.log(Q))))


def exchange_potential(
    state: ExchangeState, transformed: TransformedEquilibrium, alpha
) -> float:
    """Lazy-dynamics potential: spending KL plus a savings term weighted by
    (1 - alpha_i) / alpha_i."""
    alpha = np.asarray(alpha, dtype=float)
    if state.bids.shape != transformed.b_star.shape:
        raise ShapeMismatch(f"shape {state.bids.shape} vs {transformed.b_star.shape}")
    spend_term = kl_divergence(transformed.b_star, state.bids)
    weights = (1.0 - alpha) / alpha
    save_term = float(
        np.sum(weights * transformed.e_star * np.log(transformed.e_star / state.spend_e))
    )
    return spend_term + save_term


def check_exchange_potential_decrease(
    trace: DynamicsTrace,
    transformed: TransformedEquilibrium,
    alpha,
    slack: float = DEFAULT_SLACK,
) -> DiagnosticsReport:
    _require_consecutive(trace)
    report = DiagnosticsReport()
    states = [
        ExchangeState(budgets_B=r.budgets_B, spend_e=r.spend_e, bids=r.bids, iteration=r.iteration)
        for r in trace.records
    ]
    potentials = [exchange_potential(s, transformed, alpha) for s in states]
    report.potential_series = potentials
    for t in range(len(potentials) - 1):
        excess = potentials[t + 1] - potentials[t]
        if excess > slack:
            report.monotone_violations.append((t, float(excess)))
    report.passed = not report.monotone_violations
    return report


def diagnose_fisher(
    trace: DynamicsTrace,
    market: MarketSpec,
    eq: EquilibriumResult,
    slack: float = DEFAULT_SLACK,
) -> DiagnosticsReport:
    """Full Fisher report: potential decrease, average-price bound, and the
    personal-price inequality at every recorded interior iterate."""
    if trace.mode is not Mode.FISHER:
        raise ModeMismatch(f"diagnose_fisher needs a fisher trace, got {trace.mode.value}")
    report = check_potential_decrease(trace, eq, slack)
    b0 = trace.records[0].bids
    report.avg_price_bound = check_avg_price_rate(trace, eq, b0)
    rate_ok = all(lhs <= rhs + slack for _, lhs, rhs in report.avg_price_bound)
    gaps = [lemma_33_check(market, eq, r.allocation) for r in trace.records]
    report.lemma_gap_min = float(min(gaps))
    lemma_ok = all(g <= slack for g in gaps)
    report.passed = report.passed and rate_ok and lemma_ok
    return report
