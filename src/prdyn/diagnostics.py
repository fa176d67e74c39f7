"""Potential functions and the convergence inequalities as executable checks.

All potentials are unnormalized KL divergences between positive measures
(equilibrium spending / prices vs. the current iterate). A check walks the
trace's stored blocks, a series one array expression over a block's rows,
and never mutates them; it holds one block's arrays and a few floats per
stored row, and the average-price bound the m prices of every row. A per-row
series (the Fisher potential and price term, the Lemma 3.3 gaps, which also
read the next row's bids, the exchange potential) goes through
``DynamicsTrace.per_stored_row``, and the running mean of the prices
through ``DynamicsTrace.per_row``. On a trace that cycles from iteration
onset on with period P, a report costs its stepped rows, up to
onset + P - 1: it evaluates and scans only those, and its later entries
repeat the cycle's P values (``_report``). The single-state functions are
one-row calls of the same kernels; ``lemma_33_check`` calls
``corresponding_prices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .demand import corresponding_prices, demand
from .equilibrium import EquilibriumResult, TransformedEquilibrium
from .errors import (BoundaryBundle, InfeasibleAllocation, LazinessOutOfRange, LengthMismatch,
                     ModeMismatch, NonConsecutiveTrace, NonPositiveEntry, NonPositivePrice,
                     ShapeMismatch)
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
    """A check's result on a consecutive trace: the potential of each row
    as a list of floats, each step t whose inequality fails as (t, excess),
    the average-price bound of each T as (T, lhs, rhs), the least Lemma 3.3
    gap and whether every inequality held. On a trace that cycles from
    iteration onset on with period P, the series lists the floats of the
    stored rows, then those of the cycle's P rows again and again, the same
    float objects, and a step of the cycle that fails is listed at each of
    its repeats."""

    potential_series: List[float] = field(default_factory=list)
    monotone_violations: List[Tuple[int, float]] = field(default_factory=list)
    avg_price_bound: List[Tuple[int, float, float]] = field(default_factory=list)
    lemma_gap_min: float = 0.0
    passed: bool = True


def _require_consecutive(trace: DynamicsTrace):
    if not trace.is_consecutive():
        raise NonConsecutiveTrace("diagnostics need every iteration recorded from t=0")


def _report(trace: DynamicsTrace, potentials, price_terms, slack: float) -> DiagnosticsReport:
    """Report the potentials and price terms that trace.per_stored_row
    gives, whose step t violates potential[t + 1] <= potential[t] -
    price_term[t] by its excess over slack; a NaN excess counts as a
    violation. On a cycling trace
    the later rows and steps repeat those of the cycle
    (DynamicsTrace.repeats): the series repeats the cycle's floats, and
    only when a step of the cycle violates is excess gathered to every
    step."""
    excess = potentials[1:] - (potentials[:-1] - price_terms[:-1])
    rows, series = len(trace.records), potentials.tolist()
    if len(series) < rows:
        onset, period = trace.cycle
        # a step of the cycle that violates does so at each of its repeats
        excess = excess if np.all(excess[onset:] <= slack) else excess[trace.repeats(rows - 1)]
        cycle, phase = series[onset:onset + period], (len(series) - onset) % period
        series = (series + (cycle[phase:] + cycle[:phase]) * -(-rows // period))[:rows]
    t = np.flatnonzero(~(excess <= slack))
    violations = list(zip(t.tolist(), excess[t].tolist()))
    return DiagnosticsReport(series, violations, passed=not violations)


def check_potential_decrease(trace: DynamicsTrace, eq: EquilibriumResult,
                             slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """Per-step inequality KL(b*|b^{t+1}) <= KL(b*|b^t) - KL(p*|p^t)."""
    _require_consecutive(trace)
    potentials = trace.per_stored_row(lambda block, _: _kl_rows(eq.b_star, block.bids))
    price_terms = trace.per_stored_row(lambda block, _: _kl_rows(eq.p_star, block.prices))
    return _report(trace, potentials, price_terms, slack)


def _avg_price_rate(trace: DynamicsTrace, eq: EquilibriumResult):
    """T = 1..len(trace) and lhs of the O(1/T) bound, whose rhs is
    KL(b*|b^0) / T; checks p*. The running means of the prices of every row
    and their KL terms are taken in place, in the array per_row gives."""
    prices = trace.per_row(lambda block, _: block.prices)
    _constant(eq.p_star, prices)
    T = np.arange(1, len(prices) + 1)
    means = np.divide(np.cumsum(prices, axis=0, out=prices), T[:, None], out=prices)
    _positive(means)
    return T, _kl(eq.p_star, means, means)


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
    if X.shape[1:] != (market.n_buyers, market.n_goods):
        raise ShapeMismatch(f"alloc {X.shape[1:]} on a {market.n_buyers}x{market.n_goods} market")
    _interior(X)
    Q = corresponding_prices(*market.share_rows, X, market.budgets)
    return float(_gaps(eq.x_star * eq.p_star, np.log(eq.p_star), Q)[0])


def _laziness(alpha, n: int) -> np.ndarray:
    """alpha as an array, checked to broadcast to n agents and to lie in (0, 1)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim > 1 or alpha.size not in (1, n):
        raise ShapeMismatch(f"alpha shape {alpha.shape} does not broadcast to {n} agents")
    if not np.all((alpha > 0) & (alpha < 1)):
        raise LazinessOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _exchange_potentials(transformed: TransformedEquilibrium, alpha: np.ndarray,
                         bids: np.ndarray, spend_e: np.ndarray) -> np.ndarray:
    """Lazy-dynamics potential of each row of the stacks bids (T, n, m) and
    spend_e (T, n)."""
    weights = (1.0 - alpha) / alpha
    return _kl_rows(transformed.b_star, bids) + _kl_rows(transformed.e_star, spend_e, weights)


def exchange_potential(state: ExchangeState, transformed: TransformedEquilibrium, alpha) -> float:
    """Lazy-dynamics potential: spending KL plus a savings term weighted by
    (1 - alpha_i) / alpha_i."""
    alpha = _laziness(alpha, len(state.spend_e))
    return float(_exchange_potentials(transformed, alpha, state.bids[None], state.spend_e[None])[0])


def check_exchange_potential_decrease(trace: DynamicsTrace, transformed: TransformedEquilibrium,
                                      alpha, slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """The lazy-dynamics potential never increases by more than slack."""
    if trace.mode is not Mode.EXCHANGE:
        raise ModeMismatch(f"check_exchange_potential_decrease needs an exchange trace, "
                           f"got {trace.mode.value}")
    _require_consecutive(trace)
    alpha = _laziness(alpha, trace.blocks.stored[0].bids.shape[1])
    potentials = trace.per_stored_row(lambda block, _: _exchange_potentials(
        transformed, alpha, block.bids, block.spend_e))
    return _report(trace, potentials, np.zeros_like(potentials), slack)  # no price term


def diagnose_fisher(trace: DynamicsTrace, market: MarketSpec, eq: EquilibriumResult,
                    slack: float = DEFAULT_SLACK) -> DiagnosticsReport:
    """Full Fisher report: potential decrease, average-price bound, and the
    personal-price inequality at every recorded interior iterate. Once b*,
    p* and then every KL term are checked, the per-row series take one pass
    over the trace's stored blocks into two block-sized scratch arrays.
    A PR run re-bids b^{t+1} = e * s(x^t), so row t's corresponding prices
    are b^{t+1} / x^t, bit for bit those of ``corresponding_prices`` (called
    for the last row only). So this diagnoses a PR run; ``verify``'s replay
    confirms that a dump is one."""
    if trace.mode is not Mode.FISHER:
        raise ModeMismatch(f"diagnose_fisher needs a fisher trace, got {trace.mode.value}")
    _require_consecutive(trace)
    _constant(eq.b_star, trace.blocks[0].bids)
    T, lhs = _avg_price_rate(trace, eq)
    for block in trace.blocks.stored:  # every KL term before any allocation
        _positive(block.bids, block.prices)
    xp, log_p = eq.x_star * eq.p_star, np.log(eq.p_star)
    scratch = [np.empty(max(map(len, trace.blocks.stored)) * eq.b_star.size) for _ in range(2)]

    def rows(block, after):  # potential, price term and gap of each row
        u, v = (a[:block.bids.size].reshape(block.bids.shape) for a in scratch)
        potentials, prices = _kl(eq.b_star, block.bids, u), _kl(eq.p_star, block.prices, v[:, 0])
        X = np.divide(block.bids, block.prices[:, None, :], out=u)
        _interior(X)
        np.divide(block.bids[1:], X[:-1], out=v[:-1])
        v[-1] = (corresponding_prices(*market.share_rows, X[-1], market.budgets)
                 if after is None else after.bids / X[-1])
        return np.stack((potentials, prices, _gaps(xp, log_p, v)), axis=1)

    potentials, price_terms, gaps = trace.per_stored_row(rows).T
    report = _report(trace, potentials, price_terms, slack)
    rhs = potentials[0] / T
    report.avg_price_bound = list(zip(T.tolist(), lhs.tolist(), rhs.tolist()))
    report.lemma_gap_min = float(gaps.min())
    report.passed = report.passed and bool(np.all(lhs <= rhs + slack) and np.all(gaps <= slack))
    return report
