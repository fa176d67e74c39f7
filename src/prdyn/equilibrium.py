"""Independent equilibrium oracle for both market modes.

The oracle deliberately shares no machinery with the proportional-response
iteration: it runs a damped multiplicative excess-demand fixed point
p <- p * z^gamma (z = aggregate demand at unit supply), which only needs the
demand kernel; each step solves every buyer's budget multiplier at once by
Newton in log lam. Cobb-Douglas Fisher markets use the closed form instead.
The iteration stops with converged=False when a step would leave the prices
or the demand non-finite or a price zero. From the share rows it takes only
the Cobb-Douglas weights and the KKT residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import _check_price, demand_rows, kkt_rows
from .errors import ModeMismatch
from .market import ExchangeState, MarketSpec, Mode, income
from .utilities import shares

DEFAULT_DAMPING = 0.3


@dataclass(frozen=True)
class EquilibriumResult:
    x_star: np.ndarray
    p_star: np.ndarray
    b_star: np.ndarray  # b*[i, j] = x*[i, j] * p*[j]
    clearing: float
    optimality_gap: float
    budget_gap: float
    converged: bool
    iterations: int


def _require_mode(market: MarketSpec, mode: Mode):
    if market.mode is not mode:
        raise ModeMismatch(f"expected a {mode.value} market, got {market.mode.value}")


def _aggregate_demand(rows, market: MarketSpec, p: np.ndarray) -> np.ndarray:
    return demand_rows(rows, p, income(market, p))


def _worst(residuals: np.ndarray) -> float:
    """Largest residual; inf when any is non-finite."""
    worst = float(np.max(residuals))
    return np.inf if np.isnan(worst) else worst


def _finish(
    market: MarketSpec, p: np.ndarray, x: np.ndarray, converged: bool, iters: int
) -> EquilibriumResult:
    e = income(market, p)
    b = x * p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        clearing = _worst(np.abs(x.sum(axis=0) - 1.0))
        budget_gap = _worst(np.abs(b.sum(axis=1) - e) / e)
        # KKT residual: the corresponding price of each buyer's bundle should
        # be the market price; a bundle on the boundary has none.
        Q = e[:, None] * shares(*market.share_rows, x) / x
        opt = _worst(np.abs(Q - p) / p)
    return EquilibriumResult(
        x_star=x,
        p_star=p,
        b_star=b,
        clearing=clearing,
        optimality_gap=opt,
        budget_gap=budget_gap,
        converged=converged,
        iterations=iters,
    )


def _tatonnement(
    market: MarketSpec, total: float, tol: float, max_iters: int, damping: float
) -> EquilibriumResult:
    """Damped multiplicative excess-demand iteration on prices that sum to total.

    Stops with converged=False at the last valid iterate when the next one has
    a zero or non-finite price or a non-finite demand."""
    rows = kkt_rows(market.utilities)
    p = np.full(market.n_goods, total / market.n_goods)
    x = _aggregate_demand(rows, market, p)
    for it in range(1, max_iters + 1):
        z = x.sum(axis=0)
        if np.max(np.abs(z - 1.0)) <= tol:
            return _finish(market, p, x, converged=True, iters=it)
        p_next = p * z ** damping
        p_next *= total / p_next.sum()
        if not np.all(np.isfinite(p_next) & (p_next > 0)):
            return _finish(market, p, x, converged=False, iters=it)
        x_next = _aggregate_demand(rows, market, p_next)
        if not np.all(np.isfinite(x_next)):
            return _finish(market, p, x, converged=False, iters=it)
        p, x = p_next, x_next
    return _finish(market, p, x, converged=False, iters=max_iters)


def solve_fisher_eq(
    market: MarketSpec,
    tol: float = 1e-10,
    max_iters: int = 20000,
    damping: float = DEFAULT_DAMPING,
) -> EquilibriumResult:
    _require_mode(market, Mode.FISHER)
    C, R = market.share_rows
    if not R.any():  # all Cobb-Douglas: each buyer spends the fixed shares c
        p = market.budgets @ C
        x = _aggregate_demand(kkt_rows(market.utilities), market, p)
        return _finish(market, p, x, converged=True, iters=0)
    return _tatonnement(market, float(market.budgets.sum()), tol, max_iters, damping)


def solve_exchange_eq(
    market: MarketSpec,
    tol: float = 1e-10,
    max_iters: int = 20000,
    damping: float = DEFAULT_DAMPING,
) -> EquilibriumResult:
    """Exchange equilibria are scale free; prices are normalized to sum to 1."""
    _require_mode(market, Mode.EXCHANGE)
    return _tatonnement(market, 1.0, tol, max_iters, damping)


@dataclass(frozen=True)
class EquilibriumReport:
    demand_residual: float  # condition 1: allocation equals demand
    oversell: float  # condition 2: max(sum_i x_ij - 1, 0)
    undersell: float  # condition 3: max(1 - sum_i x_ij, 0)
    passed: bool


def _verify(market: MarketSpec, x, p: np.ndarray, tol: float) -> EquilibriumReport:
    x = np.asarray(x, dtype=float)
    xd = _aggregate_demand(kkt_rows(market.utilities), market, _check_price(p))
    col = x.sum(axis=0)
    demand_residual = float(np.max(np.abs(x - xd)))
    oversell = float(max(np.max(col - 1.0), 0.0))
    undersell = float(max(np.max(1.0 - col), 0.0))
    passed = demand_residual <= tol and oversell <= tol and undersell <= tol
    return EquilibriumReport(demand_residual, oversell, undersell, passed)


def verify_fisher_equilibrium(
    market: MarketSpec, x, p, tol: float = 1e-8
) -> EquilibriumReport:
    return _verify(market, x, np.asarray(p, dtype=float), tol)


def verify_exchange_equilibrium(
    market: MarketSpec, x, p, tol: float = 1e-8
) -> EquilibriumReport:
    """Demand is homogeneous of degree zero in (p, income(p)), so the report
    is the same under p -> c p; p is normalized to sum to 1 anyway so that
    residuals are comparable across calls."""
    p = np.asarray(p, dtype=float)
    return _verify(market, x, p / p.sum(), tol)


@dataclass(frozen=True)
class TransformedEquilibrium:
    """Exchange equilibrium mapped into the lazy dynamics' state variables.

    Per-agent income is rescaled so total bank money is exactly 1, matching
    the dynamics' money-conservation invariant.
    """

    b_star: np.ndarray
    e_star: np.ndarray
    B_star: np.ndarray
    p_star: np.ndarray
    x_star: np.ndarray


def transform_exchange_equilibrium(
    market: MarketSpec, eq: EquilibriumResult
) -> TransformedEquilibrium:
    alpha = market.laziness
    revenue = income(market, eq.p_star)
    B_tilde = revenue / alpha
    scale = float(B_tilde.sum())
    return TransformedEquilibrium(
        b_star=eq.x_star * eq.p_star / scale,
        e_star=revenue / scale,
        B_star=B_tilde / scale,
        p_star=eq.p_star / scale,
        x_star=eq.x_star,
    )


def equilibrium_exchange_state(transformed: TransformedEquilibrium) -> ExchangeState:
    """Exchange state sitting exactly at the transformed equilibrium."""
    return ExchangeState(
        budgets_B=transformed.B_star,
        spend_e=transformed.e_star,
        bids=transformed.b_star,
        iteration=0,
    )
