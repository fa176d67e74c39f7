"""Potential functions and the convergence inequalities as executable checks.

All potentials are unnormalized KL divergences between positive measures
(equilibrium spending / prices vs. the current iterate). Each series is one
array expression over a trace's rows stacked along a leading time axis. A
check walks the trace's stored blocks, so beyond the trace it holds one
block's derived arrays plus a few floats per row, whatever the trace
length; the running mean of the prices carries its cumulative sum from
block to block. A per-row series (the Fisher potential and price term, the
Lemma 3.3 gaps, the exchange potential) depends on its row alone and is
evaluated through ``DynamicsTrace.per_row``.
The single-state functions (``kl_divergence``, ``fisher_potential``,
``exchange_potential``, ``lemma_33_check``) are one-row calls of the same
kernels. Checks never mutate the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .demand import corresponding_prices, demand
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
from .utilities import UtilitySpec

DEFAULT_SLACK = 1e-9
# The Lemma 3.3 allocations must have column sums 1 to this absolute tolerance.
_FEASIBLE = 1e-8


def _kl_rows(a: np.ndarray, B: np.ndarray, weights=None) -> np.ndarray:
    """Row-wise unnormalized KL: for each row t of the stack B (shape
    (T,) + a.shape), sum_k w_k a_k log(a_k / B[t, k]), with w = 1 when no
    weights are given. Every entry of a and B must be finite and strictly
    positive."""
    if B.shape[1:] != a.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {B.shape[1:]}")
    for x in (a, B):
        if not np.all((x > 0) & (x < np.inf)):
            raise NonPositiveEntry("KL terms need finite, strictly positive entries")
    c = a if weights is None else weights * a
    return np.sum((c * np.log(a / B)).reshape(len(B), -1), axis=1)


def kl_divergence(a, b) -> float:
    """Unnormalized KL: sum_k a_k log(a_k / b_k). May be negative when the
    masses of a and b differ."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"length {a.size} vs {b.size}")
    return float(_kl_rows(a, b[None])[0])


def fisher_potential(b_star, b_t) -> float:
    """KL between equilibrium and current spending; proper (>= 0) because both
    matrices share the same row sums (the budgets)."""
    b_star = np.asarray(b_star, dtype=float)
    b_t = np.asarray(b_t, dtype=float)
    return float(_kl_rows(b_star, b_t[None])[0])


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


def _report(potentials: np.ndarray, excess: np.ndarray, slack: float) -> DiagnosticsReport:
    """Report a potential series whose step t violates its inequality by
    excess[t]; a NaN excess counts as a violation."""
    t = np.flatnonzero(~(excess <= slack))
    violations = list(zip(t.tolist(), excess[t].tolist()))
    return DiagnosticsReport(
        potential_series=potentials.tolist(),
        monotone_violations=violations,
        passed=not violations,
    )


def check_potential_decrease(
    trace: DynamicsTrace, eq: EquilibriumResult, slack: float = DEFAULT_SLACK
) -> DiagnosticsReport:
    """Per-step inequality KL(b*|b^{t+1}) <= KL(b*|b^t) - KL(p*|p^t)."""
    _require_consecutive(trace)
    potentials = trace.per_row(lambda block: _kl_rows(eq.b_star, block.bids))
    price_terms = trace.per_row(lambda block: _kl_rows(eq.p_star, block.prices))
    excess = potentials[1:] - (potentials[:-1] - price_terms[:-1])
    return _report(potentials, excess, slack)


def _avg_price_rate(trace: DynamicsTrace, eq: EquilibriumResult, b0):
    """Arrays T, lhs, rhs of the O(1/T) bound, T = 1..len(trace), of a
    consecutive trace."""
    kl0 = fisher_potential(eq.b_star, b0)
    lhs = np.empty(len(trace.records))
    carried, done = 0.0, 0  # sum of the prices before the block, and their count
    for block in trace.blocks:
        start, done = done, done + len(block)
        prices = block.prices.copy()
        prices[0] += carried
        sums = np.cumsum(prices, axis=0)
        carried = sums[-1]
        lhs[start:done] = _kl_rows(eq.p_star, sums / np.arange(start + 1, done + 1)[:, None])
    T = np.arange(1, len(lhs) + 1)
    return T, lhs, kl0 / T


def check_avg_price_rate(
    trace: DynamicsTrace, eq: EquilibriumResult, b0
) -> List[Tuple[int, float, float]]:
    """O(1/T) bound: KL(p* | mean of p^0..p^{T-1}) <= KL(b*|b^0) / T."""
    _require_consecutive(trace)
    T, lhs, rhs = _avg_price_rate(trace, eq, b0)
    return list(zip(T.tolist(), lhs.tolist(), rhs.tolist()))


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


def _lemma_33_gaps(market: MarketSpec, eq: EquilibriumResult, X: np.ndarray) -> np.ndarray:
    """Personal-price gaps of a stack X of allocations, shape (T, n, m)."""
    deviation = np.max(np.abs(X.sum(axis=1) - 1.0))
    if deviation > _FEASIBLE:
        raise InfeasibleAllocation(f"column sums deviate from 1 by {deviation}")
    if not np.all(X > 0):
        raise BoundaryBundle("corresponding prices need a strictly positive allocation")
    Q = corresponding_prices(*market.share_rows, X, market.budgets)
    terms = eq.x_star * eq.p_star * (np.log(eq.p_star) - np.log(Q))
    return np.sum(terms.reshape(len(X), -1), axis=1)


def lemma_33_check(market: MarketSpec, eq: EquilibriumResult, alloc) -> float:
    """Personal-price inequality along feasible interior allocations:
    sum_ij x*_ij p*_j (log p*_j - log q_ij) <= 0, where q_i is the
    corresponding price of buyer i's bundle. The allocation's column sums
    must be 1 to an absolute 1e-8."""
    alloc = np.asarray(alloc, dtype=float)
    return float(_lemma_33_gaps(market, eq, alloc[None])[0])


def _exchange_potentials(
    transformed: TransformedEquilibrium, alpha: np.ndarray, bids: np.ndarray, spend_e: np.ndarray
) -> np.ndarray:
    """Lazy-dynamics potential of each row of the stacks bids (T, n, m) and
    spend_e (T, n)."""
    weights = (1.0 - alpha) / alpha
    return _kl_rows(transformed.b_star, bids) + _kl_rows(transformed.e_star, spend_e, weights)


def exchange_potential(
    state: ExchangeState, transformed: TransformedEquilibrium, alpha
) -> float:
    """Lazy-dynamics potential: spending KL plus a savings term weighted by
    (1 - alpha_i) / alpha_i."""
    alpha = np.asarray(alpha, dtype=float)
    return float(_exchange_potentials(transformed, alpha, state.bids[None], state.spend_e[None])[0])


def check_exchange_potential_decrease(
    trace: DynamicsTrace,
    transformed: TransformedEquilibrium,
    alpha,
    slack: float = DEFAULT_SLACK,
) -> DiagnosticsReport:
    """The lazy-dynamics potential never increases by more than slack."""
    if trace.mode is not Mode.EXCHANGE:
        raise ModeMismatch(
            f"check_exchange_potential_decrease needs an exchange trace, got {trace.mode.value}"
        )
    _require_consecutive(trace)
    alpha = np.asarray(alpha, dtype=float)
    potentials = trace.per_row(
        lambda block: _exchange_potentials(transformed, alpha, block.bids, block.spend_e)
    )
    return _report(potentials, np.diff(potentials), slack)


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
    report = check_potential_decrease(trace, eq, slack)  # requires a consecutive trace
    T, lhs, rhs = _avg_price_rate(trace, eq, trace.records[0].bids)
    report.avg_price_bound = list(zip(T.tolist(), lhs.tolist(), rhs.tolist()))
    gaps = trace.per_row(lambda block: _lemma_33_gaps(market, eq, block.allocation))
    report.lemma_gap_min = float(gaps.min())
    rate_ok = bool(np.all(lhs <= rhs + slack))
    lemma_ok = bool(np.all(gaps <= slack))
    report.passed = report.passed and rate_ok and lemma_ok
    return report
