"""Demand oracles per utility family, and the corresponding-price map.

Cobb-Douglas and CES demands are closed form. Separable power demand solves
the budget constraint for the KKT multiplier by bisection: spending p.x(lam)
is strictly decreasing in lam, so the root is unique. Demand shares no code
with the dynamics; the corresponding price q = e * s / x uses its share kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryBundle,
    BracketingFailure,
    BudgetNotDominated,
    NonPositiveBudget,
    NonPositivePrice,
    PriceNotDominated,
    ToleranceNotReached,
)
from .utilities import CES, CobbDouglas, SeparablePower, UtilitySpec, bid_shares, eval_gradient

_MAX_BRACKET = 200
_MAX_BISECT = 200


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


def demand(u: UtilitySpec, p, e: float, tol: float = 1e-12) -> DemandResult:
    """Utility-maximizing bundle under budget e at prices p."""
    p = _check_price(p)
    e = float(e)
    if e <= 0:
        raise NonPositiveBudget(f"budget must be strictly positive, got {e}")
    if isinstance(u, CobbDouglas):
        x = e * u.weights / p
        lam = float(eval_gradient(u, x)[0] / p[0])
        return DemandResult(x=x, spent=float(p @ x), lam=lam)
    if isinstance(u, CES):
        sigma = 1.0 / (1.0 - u.rho)
        a_s = u.weights ** sigma
        denom = np.sum(a_s * p ** (1.0 - sigma))
        x = e * a_s * p ** (-sigma) / denom
        lam = float(eval_gradient(u, x)[0] / p[0])
        return DemandResult(x=x, spent=float(p @ x), lam=lam)
    return demand_separable_numeric(u, p, e, tol)


def _separable_bundle(u: SeparablePower, p: np.ndarray, lam) -> np.ndarray:
    # Interior KKT: a_j rho_j x_j^{rho_j - 1} = lam p_j.
    lam = np.asarray(lam, dtype=float)
    base = lam[..., None] * p / (u.weights * u.exponents)
    return base ** (1.0 / (u.exponents - 1.0))


def demand_separable_numeric(
    u: SeparablePower, p, e: float, tol: float = 1e-12
) -> DemandResult:
    p = _check_price(p)
    e = float(e)
    if e <= 0:
        raise NonPositiveBudget(f"budget must be strictly positive, got {e}")

    def spending(lam: float) -> float:
        return float(p @ _separable_bundle(u, p, lam))

    lo = hi = 1.0
    for _ in range(_MAX_BRACKET):
        if spending(lo) > e:
            break
        lo *= 0.5
    else:
        raise BracketingFailure("could not bracket the multiplier from below")
    for _ in range(_MAX_BRACKET):
        if spending(hi) < e:
            break
        hi *= 2.0
    else:
        raise BracketingFailure("could not bracket the multiplier from above")

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        s = spending(mid)
        if abs(s - e) <= tol * e:
            x = _separable_bundle(u, p, mid)
            return DemandResult(x=x, spent=s, lam=mid)
        if s > e:
            lo = mid
        else:
            hi = mid
    raise ToleranceNotReached(
        f"bisection did not reach relative tolerance {tol} in {_MAX_BISECT} steps"
    )


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
