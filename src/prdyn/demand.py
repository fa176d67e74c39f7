"""Demand oracles for all utility families, and the corresponding-price map.

For every family the interior KKT condition reads k_j x_j^{r_j - 1} = lam p_j
(Cobb-Douglas k = a, r = 0; CES k = a, r = rho, up to a positive factor on
lam; separable power k = a * rho, r = rho), so x_j = exp(beta_j (t + log p_j
- log k_j)) with beta = 1 / (r - 1) < 0 and t = log lam. One kernel solves the
budget constraint for t by Newton in log lam over all buyers at once:
log(p . x(t)) - log e is convex and strictly decreasing in t, so Newton
converges from any start, and it is exact after one step on a row with a
constant exponent. Demand shares no code with the dynamics; the corresponding
price q = e * s / x uses its share kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    BoundaryBundle,
    BudgetNotDominated,
    NonPositiveBudget,
    NonPositivePrice,
    PriceNotDominated,
    ToleranceNotReached,
)
from .utilities import CES, CobbDouglas, SeparablePower, UtilitySpec, bid_shares, eval_gradient

_MAX_NEWTON = 100


@dataclass(frozen=True)
class DemandResult:
    x: np.ndarray
    spent: float
    lam: float  # multiplier on the budget constraint


def _check_price(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(p > 0):
        raise NonPositivePrice(f"prices must be strictly positive, got {p}")
    return p


def _kkt_row(u: UtilitySpec) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(u, CobbDouglas):
        return np.log(u.weights), np.full_like(u.weights, -1.0)
    if isinstance(u, CES):
        return np.log(u.weights), np.full_like(u.weights, 1.0 / (u.rho - 1.0))
    return np.log(u.weights * u.exponents), 1.0 / (u.exponents - 1.0)


def kkt_rows(utilities: Sequence[UtilitySpec]) -> Tuple[np.ndarray, np.ndarray]:
    """n x m arrays (log k, beta); row i gives buyer i's demand
    x_j = exp(beta_j (t + log p_j - log k_j)) at multiplier t = log lam."""
    log_k, beta = zip(*(_kkt_row(u) for u in utilities))
    return np.stack(log_k), np.stack(beta)


def demand_rows(
    rows: Tuple[np.ndarray, np.ndarray], p: np.ndarray, e: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Every buyer's demand at once: row i spends e[i] at prices p to relative
    tolerance tol. p and e must be strictly positive. A demand too large for a
    float comes back as inf."""
    log_k, beta = rows
    log_p = np.log(p)
    log_e = np.log(e)[:, None]
    # w[i, j] is the log of buyer i's spending on good j, here at t = 0.
    # Newton moves w itself rather than t, so the entries that carry the
    # spending stay moderate and round far below tol even at extreme prices.
    w = log_p + beta * (log_p - log_k)
    bound = np.log1p(tol)  # |g| <= log1p(tol) implies |expm1(g)| <= tol
    for _ in range(_MAX_NEWTON):
        top = w.max(axis=1, keepdims=True)
        E = np.exp(w - top)  # shifted by the row max: no overflow
        S = E.sum(axis=1, keepdims=True)
        g = top + np.log(S) - log_e  # log(spending / e)
        w -= beta * (g * S / (beta * E).sum(axis=1, keepdims=True))
        if np.abs(g).max() <= bound:
            # The step just taken is one more than tol needs; it leaves the
            # spending error at the rounding level.
            with np.errstate(over="ignore"):
                return np.exp(w - log_p)
    raise ToleranceNotReached(
        f"Newton did not reach relative tolerance {tol} in {_MAX_NEWTON} steps"
    )


def demand(u: UtilitySpec, p, e: float, tol: float = 1e-12) -> DemandResult:
    """Utility-maximizing bundle under budget e at prices p."""
    p = _check_price(p)
    e = float(e)
    if e <= 0:
        raise NonPositiveBudget(f"budget must be strictly positive, got {e}")
    x = demand_rows(kkt_rows([u]), p, np.array([e]), tol)[0]
    return DemandResult(x=x, spent=float(p @ x), lam=float(eval_gradient(u, x)[0] / p[0]))


def demand_separable_numeric(u: SeparablePower, p, e: float, tol: float = 1e-12) -> DemandResult:
    """Separable-power demand; the same one-row Newton kernel as ``demand``."""
    return demand(u, p, e, tol)


def corresponding_price(u: UtilitySpec, x, e: float) -> np.ndarray:
    """The unique price vector at which the strictly positive bundle x is optimal.

    q_j = e * grad_j u(x) / sum_k x_k grad_k u(x) = e * bid_shares(u, x)_j / x_j.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise BoundaryBundle(f"corresponding price needs a strictly positive bundle, got {x}")
    return e * bid_shares(u, x) / x


@dataclass(frozen=True)
class PerGoodReport:
    passed: bool
    per_good: np.ndarray  # bool mask, True where the check holds
    residuals: np.ndarray


def check_gs_property(u: UtilitySpec, p, p_hi, e: float, tol: float = 1e-10) -> PerGoodReport:
    """Gross substitutes: demand for goods whose price did not move cannot fall."""
    p = _check_price(p)
    p_hi = _check_price(p_hi)
    if np.any(p_hi < p):
        raise PriceNotDominated(f"need p <= p_hi componentwise, got {p} vs {p_hi}")
    x_lo = demand(u, p, e).x
    x_hi = demand(u, p_hi, e).x
    unchanged = p == p_hi
    residuals = np.where(unchanged, x_lo - x_hi, 0.0)
    ok = residuals <= tol
    return PerGoodReport(passed=bool(np.all(ok)), per_good=ok, residuals=residuals)


def check_normal_goods(u: UtilitySpec, p, e: float, e_hi: float, tol: float = 1e-10) -> PerGoodReport:
    """Normal goods: demand is weakly increasing in the budget at fixed prices."""
    p = _check_price(p)
    if e_hi < e:
        raise BudgetNotDominated(f"need e <= e_hi, got {e} vs {e_hi}")
    x_lo = demand(u, p, e).x
    x_hi = demand(u, p, e_hi).x
    residuals = x_lo - x_hi
    ok = residuals <= tol
    return PerGoodReport(passed=bool(np.all(ok)), per_good=ok, residuals=residuals)
