"""Demand oracles for all utility families, and the corresponding-price map.

Demand reads a buyer through its share row (c, r) (utilities.share_row, and
MarketSpec.share_rows for a market), the same input as the PR map: as
x_j grad_j u(x) is proportional to c_j x_j^{r_j}, the interior KKT condition
reads k_j x_j^{r_j - 1} = lam p_j with k = c, up to a positive factor on lam,
so x_j = exp(beta_j (t + log p_j - log k_j)) with beta = 1 / (r - 1) < 0 and
t = log lam. One kernel solves the budget constraint for t by Newton in
log lam over all buyers at once: log(p . x(t)) - log e is convex and
strictly decreasing in t, so Newton converges from any start, and it is
exact after one step on a row with a constant exponent. demand_jacobian
differentiates the same rows in log p for the equilibrium oracle. Demand
shares no iteration with the dynamics; the corresponding price q = e * s / x
uses its share kernel, in one function, corresponding_prices, which the
oracle's KKT residual and lemma_33_check call too. The PR map re-bids
b' = e * s(x) with the same kernel, so diagnose_fisher reads a run's
corresponding prices as b' / x and calls corresponding_prices only for the
trace's last row. As demand and corresponding_prices both read the share
rows, the checks on each family's row are made against the family's own
gradient, eval_gradient:
test_demand's TestFamilyGradient::test_demand_meets_kkt and
TestCorrespondingPrice::test_round_trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    BoundaryBundle,
    BudgetNotDominated,
    InvalidRunControl,
    NonPositiveBudget,
    NonPositivePrice,
    PriceNotDominated,
    ToleranceNotReached,
)
from .utilities import UtilitySpec, _check_bundle, eval_gradient, share_row, shares

_MAX_NEWTON = 100


@dataclass(frozen=True)
class DemandResult:
    x: np.ndarray
    spent: float
    lam: float  # multiplier on the budget constraint


def _check_budget(e) -> float:
    e = float(e)
    if not 0 < e < np.inf:
        raise NonPositiveBudget(f"budget must be finite and strictly positive, got {e}")
    return e


def _check_price(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p) & (p > 0)):
        raise NonPositivePrice(f"prices must be finite and strictly positive, got {p}")
    return p


def kkt_rows(C: np.ndarray, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays (log k, beta) of the shape of the share rows (C, R): row i
    gives buyer i's demand x_j = exp(beta_j (t + log p_j - log k_j)) at
    multiplier t = log lam."""
    return np.log(C), 1.0 / (R - 1.0)


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


def demand_jacobian(
    rows: Tuple[np.ndarray, np.ndarray], p: np.ndarray, x: np.ndarray, e: np.ndarray, eps
) -> np.ndarray:
    """m x m Jacobian dz_j / d log p_k of the aggregate demand z = x.sum(0),
    where x = demand_rows(rows, p, e) and eps[i, k] = d log e_i / d log p_k
    (0 for fixed budgets). With spending shares S = x p / e, each buyer's
    multiplier moves as dt_i / d log p_k = (eps_ik - S_ik (1 + beta_ik)) /
    sum_j S_ij beta_ij, and log x_ij moves by beta_ij (delta_jk + dt_i)."""
    _, beta = rows
    S = x * p / e[:, None]
    xb = x * beta
    dt = (eps - S * (1.0 + beta)) / (S * beta).sum(axis=1, keepdims=True)
    return np.diag(xb.sum(axis=0)) + xb.T @ dt


def demand(u: UtilitySpec, p, e: float, tol: float = 1e-12) -> DemandResult:
    """Utility-maximizing bundle under budget e at prices p, spending e to
    relative tolerance tol. A tol that is not >= 0, such as NaN, which no
    spending meets, raises InvalidRunControl. Prices and the budget must be
    finite and strictly positive."""
    p = _check_price(p)
    e = _check_budget(e)
    if not tol >= 0:
        raise InvalidRunControl(f"tol must be nonnegative, got {tol}")
    C, R = share_row(u)
    x = demand_rows(kkt_rows(C[None], R[None]), p, np.array([e]), tol)[0]
    return DemandResult(x=x, spent=float(p @ x), lam=float(eval_gradient(u, x)[0] / p[0]))


def corresponding_prices(C: np.ndarray, R: np.ndarray, X: np.ndarray, e) -> np.ndarray:
    """q = e * s(X) / X for bundles X of any leading axes, with the share
    kernel's s: the last axis of X is the goods, and e holds one budget per
    bundle (or one for all). It checks nothing; a bundle with a zero entry
    has no corresponding price."""
    return np.asarray(e)[..., None] * shares(C, R, X) / X


def corresponding_price(u: UtilitySpec, x, e: float) -> np.ndarray:
    """The unique price vector at which the finite, strictly positive bundle x
    is optimal under the finite, strictly positive budget e.

    q_j = e * grad_j u(x) / sum_k x_k grad_k u(x) = e * bid_shares(u, x)_j / x_j.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise BoundaryBundle(f"corresponding price needs a strictly positive bundle, got {x}")
    return corresponding_prices(*share_row(u), _check_bundle(u, x), _check_budget(e))


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
