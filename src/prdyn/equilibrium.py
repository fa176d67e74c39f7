"""Independent equilibrium oracle for both market modes.

The oracle shares no iteration with the proportional-response map: it
solves z(p) = 1 (z = aggregate demand at unit supply) by guarded Newton
steps in log p, which only need the demand kernel and its Jacobian in log p
(demand.demand_jacobian); each demand call solves every buyer's budget
multiplier at once by Newton in log lam. Its one input from the market is
the one the map reads, the share rows: the demand kernel's rows are
kkt_rows(*market.share_rows), and the KKT residual is the corresponding
price of the share kernel. The iteration stops with converged=False when a
step would leave the prices or the demand non-finite or zero, or when its
line search stalls; a result is converged only when its residuals are
finite, too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import _check_price, corresponding_prices, demand_jacobian, demand_rows, kkt_rows
from .errors import InvalidRunControl, ModeMismatch, ShapeMismatch
from .market import ExchangeState, MarketSpec, Mode, income

_ARMIJO = 1e-4  # sufficient decrease of ||log z||^2 per unit step length
_MIN_STEP = 2.0 ** -30  # shortest step length the line search tries


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
        Q = corresponding_prices(*market.share_rows, x, e)
        opt = _worst(np.abs(Q - p) / p)
    finite = bool(np.isfinite([clearing, opt, budget_gap]).all())
    return EquilibriumResult(
        x_star=x,
        p_star=p,
        b_star=b,
        clearing=clearing,
        optimality_gap=opt,
        budget_gap=budget_gap,
        converged=converged and finite,
        iterations=iters,
    )


def _newton(market: MarketSpec, total: float, tol: float, max_iters: int) -> EquilibriumResult:
    """Guarded Newton iteration on u = log p for z = 1, from uniform prices
    that sum to total.

    Each step solves (J / z) du = -log z with J = dz/du from demand_jacobian;
    an exchange market, whose demand is scale free, adds the row p . du = 0.
    The step is scaled so that no price moves by more than a factor e, then
    halved until ||log z||^2 falls (Armijo). Once max|z - 1| <= tol, one more
    full step is kept if it does not raise that residual, which leaves p*
    accurate well beyond tol. Stops with converged=False at the last valid
    iterate when no step length gives finite, positive prices and demand that
    lower the residual. A tol that is not >= 0, such as NaN, which no
    residual meets, or a max_iters below 1 raises InvalidRunControl."""
    if not tol >= 0:
        raise InvalidRunControl(f"tol must be nonnegative, got {tol}")
    if max_iters < 1:
        raise InvalidRunControl(f"max_iters must be >= 1, got {max_iters}")
    rows = kkt_rows(*market.share_rows)
    exchange = market.mode is Mode.EXCHANGE

    def at(p):
        """(p, e, x, z) with z the aggregate demand; None when a price or an
        entry of z is zero or not finite."""
        if exchange:
            p = p * (total / p.sum())
        if not np.all(np.isfinite(p) & (p > 0)):
            return None
        e = income(market, p)
        x = demand_rows(rows, p, e)
        z = x.sum(axis=0)
        return (p, e, x, z) if np.all(np.isfinite(z) & (z > 0)) else None

    def newton_step(p, e, x, z):
        eps = market.ownership * p / e[:, None] if exchange else 0.0
        A = demand_jacobian(rows, p, x, e, eps) / z[:, None]
        if exchange:
            A, rhs = np.vstack([A, p]), np.append(-np.log(z), 0.0)
            return np.linalg.lstsq(A, rhs, rcond=None)[0]
        return np.linalg.solve(A, -np.log(z))

    p = np.full(market.n_goods, total / market.n_goods)
    state = at(p)
    if state is None:  # some demand at uniform prices is out of float range
        return _finish(market, p, _aggregate_demand(rows, market, p), False, 0)
    for it in range(1, max_iters + 1):
        p, e, x, z = state
        gap = np.max(np.abs(z - 1.0))
        if gap <= tol:
            final = at(p * np.exp(newton_step(*state)))
            if final is not None and np.max(np.abs(final[3] - 1.0)) <= gap:
                p, _, x, _ = final
            return _finish(market, p, x, converged=True, iters=it)
        du = newton_step(*state)
        du /= max(1.0, np.abs(du).max())
        f = np.sum(np.log(z) ** 2)
        alpha = 1.0
        while True:
            state = at(p * np.exp(alpha * du))
            if state is not None and np.sum(np.log(state[3]) ** 2) <= (1 - _ARMIJO * alpha) * f:
                break
            alpha /= 2.0
            if alpha < _MIN_STEP:
                return _finish(market, p, x, converged=False, iters=it)
    p, _, x, _ = state
    return _finish(market, p, x, converged=False, iters=max_iters)


def solve_fisher_eq(
    market: MarketSpec, tol: float = 1e-10, max_iters: int = 20000
) -> EquilibriumResult:
    _require_mode(market, Mode.FISHER)
    return _newton(market, float(market.budgets.sum()), tol, max_iters)


def solve_exchange_eq(
    market: MarketSpec, tol: float = 1e-10, max_iters: int = 20000
) -> EquilibriumResult:
    """Exchange equilibria are scale free; prices are normalized to sum to 1."""
    _require_mode(market, Mode.EXCHANGE)
    return _newton(market, 1.0, tol, max_iters)


@dataclass(frozen=True)
class EquilibriumReport:
    demand_residual: float  # condition 1: allocation equals demand
    oversell: float  # condition 2: max(sum_i x_ij - 1, 0)
    undersell: float  # condition 3: max(1 - sum_i x_ij, 0)
    passed: bool


def _verify(market: MarketSpec, x, p: np.ndarray, tol: float) -> EquilibriumReport:
    x, n, m = np.asarray(x, dtype=float), market.n_buyers, market.n_goods
    if x.shape != (n, m) or p.shape != (m,):
        raise ShapeMismatch(f"x shape {x.shape} and p shape {p.shape}, "
                            f"expected ({n}, {m}) and ({m},)")
    xd = _aggregate_demand(kkt_rows(*market.share_rows), market, _check_price(p))
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
    the dynamics' money-conservation invariant. e_star is laziness * B_star
    bit for bit, as a trace derives e, so equilibrium_exchange_state is a
    state run_exchange accepts at any laziness.
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
    B_star = B_tilde / scale
    return TransformedEquilibrium(
        b_star=eq.x_star * eq.p_star / scale,
        e_star=alpha * B_star,
        B_star=B_star,
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
