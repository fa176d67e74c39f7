"""Potential functions and the convergence inequalities as executable checks.

All potentials are unnormalized KL divergences between positive measures
(equilibrium spending / prices vs. the current iterate). A check walks the
trace's stored blocks, a series one array expression over a block's rows,
and never mutates them; it holds one block's arrays and a few floats per
row. A per-row series (the Fisher potential and price term, the Lemma 3.3
gaps, which also read the next row's bids, the exchange potential) goes
through ``DynamicsTrace.per_row``. The single-state functions are one-row
calls of the same kernels; ``lemma_33_check`` calls ``corresponding_prices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .demand import corresponding_prices, demand
from .equilibrium import EquilibriumResult, TransformedEquilibrium
from .errors import (BoundaryBundle, InfeasibleAllocation, LengthMismatch, ModeMismatch,
                     NonConsecutiveTrace, NonPositiveEntry, NonPositivePrice, ShapeMismatch)
from .market import DynamicsTrace, ExchangeState, MarketSpec, Mode
from .utilities import UtilitySpec

DEFAULT_SLACK = 1e-9
# The Lemma 3.3 allocations must have column sums 1 to this absolute tolerance.
_FEASIBLE = 1e-8


def _positive(*arrays):
    if not all(np.all((x > 0) & (x < np.inf)) for x in arrays):
        raise NonPositiveEntry("KL terms need finite, strictly positive entries")


def _constant(a: np.ndarray, B: np.ndarray):
    """Check a, the fixed side of a KL series over the rows of the stack B."""
    if B.shape[1:] != a.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {B.shape[1:]}")
    _positive(a)


def _kl(a: np.ndarray, B: np.ndarray, out: np.ndarray, c=None) -> np.ndarray:
    """sum_k c_k log(a_k / B[t, k]) per row t of the stack B (c = a by default); unchecked."""
    np.multiply(a if c is None else c, np.log(np.divide(a, B, out=out), out=out), out=out)
    return np.add.reduce(out.reshape(len(B), -1), axis=1)


def _kl_rows(a: np.ndarray, B: np.ndarray, weights=None) -> np.ndarray:
    """Row-wise unnormalized KL: for each row t of the stack B (shape (T,) +
    a.shape), sum_k w_k a_k log(a_k / B[t, k]), w = 1 when no weights are
    given. Every entry of a and B must be finite and strictly positive."""
    _constant(a, B)
    _positive(B)
    return _kl(a, B, np.empty(B.shape), None if weights is None else weights * a)


def kl_divergence(a, b) -> float:
    """Unnormalized KL: sum_k a_k log(a_k / b_k). May be negative when the
    masses of a and b differ."""
    a, b = (np.asarray(v, dtype=float).ravel() for v in (a, b))
    if a.shape != b.shape:
        raise LengthMismatch(f"length {a.size} vs {b.size}")
    return float(_kl_rows(a, b[None])[0])


def fisher_potential(b_star, b_t) -> float:
    """KL between equilibrium and current spending; proper (>= 0) because both
    matrices share the same row sums (the budgets)."""
    return float(_kl_rows(np.asarray(b_star, dtype=float), np.asarray(b_t, dtype=float)[None])[0])


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
    return DiagnosticsReport(potentials.tolist(), violations, passed=not violations)


def check_potential_decrease(trace: DynamicsTrace, eq: EquilibriumResult,
                             slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """Per-step inequality KL(b*|b^{t+1}) <= KL(b*|b^t) - KL(p*|p^t)."""
    _require_consecutive(trace)
    potentials = trace.per_row(lambda block, _: _kl_rows(eq.b_star, block.bids))
    price_terms = trace.per_row(lambda block, _: _kl_rows(eq.p_star, block.prices))
    return _report(potentials, potentials[1:] - (potentials[:-1] - price_terms[:-1]), slack)


def _avg_price_rate(trace: DynamicsTrace, eq: EquilibriumResult):
    """T = 1..len(trace) and lhs of the O(1/T) bound, whose rhs is KL(b*|b^0) / T; checks p*."""
    _constant(eq.p_star, trace.blocks[0].prices)
    lhs = np.empty(len(trace.records))
    carried, done = 0.0, 0  # sum of the prices before the block, and their count
    for block in trace.blocks:
        start, done = done, done + len(block)
        prices = np.concatenate((block.prices[:1] + carried, block.prices[1:]))
        sums = np.cumsum(prices, axis=0)
        carried = sums[-1]
        means = np.divide(sums, np.arange(start + 1, done + 1)[:, None], out=prices)
        _positive(means)
        lhs[start:done] = _kl(eq.p_star, means, means)
    return np.arange(1, len(lhs) + 1), lhs


def check_avg_price_rate(trace: DynamicsTrace, eq: EquilibriumResult,
                         b0) -> List[Tuple[int, float, float]]:
    """O(1/T) bound: KL(p* | mean of p^0..p^{T-1}) <= KL(b*|b^0) / T."""
    _require_consecutive(trace)
    kl0 = fisher_potential(eq.b_star, b0)
    T, lhs = _avg_price_rate(trace, eq)
    return list(zip(T.tolist(), lhs.tolist(), (kl0 / T).tolist()))


def lemma_gap(u: UtilitySpec, p, q, e: float) -> float:
    """Gap of the gross-substitutes spending inequality; nonpositive for any
    pair of positive price vectors, zero only when the demands coincide."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise NonPositivePrice("lemma_gap requires strictly positive prices")
    x_p, x_q = demand(u, p, e).x, demand(u, q, e).x
    return float(np.sum(p * x_p * np.log(p / q))) - float(np.sum(p * (x_q - x_p)))


def _interior(X: np.ndarray):
    """Check that Lemma 3.3 covers a stack X of allocations, shape (T, n, m)."""
    deviation = np.max(np.abs(X.sum(axis=1) - 1.0))
    if deviation > _FEASIBLE:
        raise InfeasibleAllocation(f"column sums deviate from 1 by {deviation}")
    if not X.min() > 0:
        raise BoundaryBundle("corresponding prices need a strictly positive allocation")


def _gaps(xp: np.ndarray, log_p: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Gaps sum_ij xp_ij (log_p_j - log Q[t, i, j]) per row t of the stack Q; Q is scratch."""
    np.subtract(log_p, np.log(Q, out=Q), out=Q)
    return np.add.reduce(np.multiply(xp, Q, out=Q).reshape(len(Q), -1), axis=1)


def lemma_33_check(market: MarketSpec, eq: EquilibriumResult, alloc) -> float:
    """Personal-price inequality along feasible interior allocations:
    sum_ij x*_ij p*_j (log p*_j - log q_ij) <= 0, q_i the corresponding price
    of buyer i's bundle; the column sums must be 1 to an absolute 1e-8."""
    X = np.asarray(alloc, dtype=float)[None]
    _interior(X)
    Q = corresponding_prices(*market.share_rows, X, market.budgets)
    return float(_gaps(eq.x_star * eq.p_star, np.log(eq.p_star), Q)[0])


def _exchange_potentials(transformed: TransformedEquilibrium, alpha: np.ndarray,
                         bids: np.ndarray, spend_e: np.ndarray) -> np.ndarray:
    """Lazy-dynamics potential of each row of the stacks bids (T, n, m) and
    spend_e (T, n)."""
    weights = (1.0 - alpha) / alpha
    return _kl_rows(transformed.b_star, bids) + _kl_rows(transformed.e_star, spend_e, weights)


def exchange_potential(state: ExchangeState, transformed: TransformedEquilibrium, alpha) -> float:
    """Lazy-dynamics potential: spending KL plus a savings term weighted by
    (1 - alpha_i) / alpha_i."""
    alpha = np.asarray(alpha, dtype=float)
    return float(_exchange_potentials(transformed, alpha, state.bids[None], state.spend_e[None])[0])


def check_exchange_potential_decrease(trace: DynamicsTrace, transformed: TransformedEquilibrium,
                                      alpha, slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """The lazy-dynamics potential never increases by more than slack."""
    if trace.mode is not Mode.EXCHANGE:
        raise ModeMismatch(f"check_exchange_potential_decrease needs an exchange trace, "
                           f"got {trace.mode.value}")
    _require_consecutive(trace)
    alpha = np.asarray(alpha, dtype=float)
    potentials = trace.per_row(lambda block, _: _exchange_potentials(transformed, alpha,
                                                                     block.bids, block.spend_e))
    return _report(potentials, np.diff(potentials), slack)


def diagnose_fisher(trace: DynamicsTrace, market: MarketSpec, eq: EquilibriumResult,
                    slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """Full Fisher report: potential decrease, average-price bound, and the
    personal-price inequality at every recorded interior iterate. Once b*,
    p* and then every KL term are checked, the per-row series take one pass
    over the trace's ``distinct_blocks`` into two block-sized scratch arrays.
    A PR run re-bids b^{t+1} = e * s(x^t), so row t's corresponding prices
    are b^{t+1} / x^t, bit for bit those of ``corresponding_prices`` (called
    for the last row only). So this diagnoses a PR run; ``verify``'s replay
    confirms that a dump is one."""
    if trace.mode is not Mode.FISHER:
        raise ModeMismatch(f"diagnose_fisher needs a fisher trace, got {trace.mode.value}")
    _require_consecutive(trace)
    _constant(eq.b_star, trace.blocks[0].bids)
    T, lhs = _avg_price_rate(trace, eq)
    for block in trace.distinct_blocks():  # every KL term before any allocation
        _positive(block.bids, block.prices)
    xp, log_p = eq.x_star * eq.p_star, np.log(eq.p_star)
    scratch = [np.empty(max(map(len, trace.distinct_blocks())) * eq.b_star.size) for _ in range(2)]

    def rows(block, after):  # potential, price term and gap of each row
        u, v = (a[:block.bids.size].reshape(block.bids.shape) for a in scratch)
        potentials, prices = _kl(eq.b_star, block.bids, u), _kl(eq.p_star, block.prices, v[:, 0])
        X = np.divide(block.bids, block.prices[:, None, :], out=u)
        _interior(X)
        np.divide(block.bids[1:], X[:-1], out=v[:-1])
        v[-1] = (corresponding_prices(*market.share_rows, X[-1], market.budgets)
                 if after is None else after.bids[0] / X[-1])
        return np.stack((potentials, prices, _gaps(xp, log_p, v)), axis=1)

    potentials, price_terms, gaps = trace.per_row(rows).T
    report = _report(potentials, potentials[1:] - (potentials[:-1] - price_terms[:-1]), slack)
    rhs = potentials[0] / T
    report.avg_price_bound = list(zip(T.tolist(), lhs.tolist(), rhs.tolist()))
    report.lemma_gap_min = float(gaps.min())
    report.passed = report.passed and bool(np.all(lhs <= rhs + slack) and np.all(gaps <= slack))
    return report
