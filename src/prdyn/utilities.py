"""Utility-function families: Cobb-Douglas, CES substitutes, and separable power.

All three are strictly concave, strictly increasing on the positive orthant,
gross substitutes, and have normal goods. Cobb-Douglas and CES are homogeneous
of degree one; separable power with heterogeneous exponents is not, which is
exactly the case the rest of the package is built to exercise. For each
family x_j * grad_j u(x) is proportional to c_j x_j^{r_j}, so the dynamics
sees a utility only through its share row (c, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import NonPositiveBundle, UtilityParamInvalid


def _positive_weights(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise UtilityParamInvalid(f"weights must be a nonempty 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise UtilityParamInvalid(f"all weights must be finite and strictly positive, got {a}")
    # The share kernel bounds sum_j c_j x_j^{r_j} only by sum_j c_j (x <= 1),
    # and Cobb-Douglas normalizes by it: a sum past float range breaks both.
    with np.errstate(over="ignore"):
        if not np.isfinite(a.sum()):
            raise UtilityParamInvalid(f"weights must have a finite sum, got {a}")
    return a


@dataclass(frozen=True)
class CobbDouglas:
    """u(x) = prod_j x_j^{a_j} with weights normalized to sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        a = _positive_weights(self.weights)
        # Iterate normalization to a bitwise fixed point so that serializing
        # and re-loading a utility reproduces the exact same weights.
        for _ in range(4):
            scaled = a / a.sum()
            if np.array_equal(scaled, a):
                break
            a = scaled
        object.__setattr__(self, "weights", a)

    @property
    def n_goods(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class CES:
    """u(x) = (sum_j a_j x_j^rho)^{1/rho} in the substitutes regime 0 < rho < 1."""

    weights: np.ndarray
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _positive_weights(self.weights))
        rho = float(self.rho)
        if not (0.0 < rho < 1.0):
            raise UtilityParamInvalid(f"CES rho must lie in (0, 1), got {rho}")
        object.__setattr__(self, "rho", rho)

    @property
    def n_goods(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SeparablePower:
    """u(x) = sum_j a_j x_j^{rho_j}, each rho_j in (0, 1).

    With heterogeneous exponents this utility is not homogeneous of any degree.
    """

    weights: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        a = _positive_weights(self.weights)
        r = np.asarray(self.exponents, dtype=float)
        if r.shape != a.shape:
            raise UtilityParamInvalid(
                f"exponents shape {r.shape} does not match weights shape {a.shape}"
            )
        if not np.all((r > 0.0) & (r < 1.0)):
            raise UtilityParamInvalid(f"all exponents must lie in (0, 1), got {r}")
        object.__setattr__(self, "weights", a)
        object.__setattr__(self, "exponents", r)

    @property
    def n_goods(self) -> int:
        return self.weights.size


UtilitySpec = Union[CobbDouglas, CES, SeparablePower]


def _check_bundle(u: UtilitySpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (u.n_goods,):
        raise NonPositiveBundle(f"bundle shape {x.shape} does not match {u.n_goods} goods")
    if not np.all(np.isfinite(x) & (x > 0)):
        raise NonPositiveBundle(f"bundle must be finite and strictly positive, got {x}")
    return x


def eval_utility(u: UtilitySpec, x) -> float:
    x = _check_bundle(u, x)
    if isinstance(u, CobbDouglas):
        return float(np.prod(x ** u.weights))
    if isinstance(u, CES):
        return float(np.sum(u.weights * x ** u.rho) ** (1.0 / u.rho))
    return float(np.sum(u.weights * x ** u.exponents))


def eval_gradient(u: UtilitySpec, x) -> np.ndarray:
    x = _check_bundle(u, x)
    if isinstance(u, CobbDouglas):
        return eval_utility(u, x) * u.weights / x
    if isinstance(u, CES):
        value = eval_utility(u, x)
        return value ** (1.0 - u.rho) * u.weights * x ** (u.rho - 1.0)
    return u.weights * u.exponents * x ** (u.exponents - 1.0)


def share_row(u: UtilitySpec) -> Tuple[np.ndarray, np.ndarray]:
    """(c, r) such that x_j * grad_j u(x) is proportional to c_j x_j^{r_j}."""
    if isinstance(u, CobbDouglas):
        return u.weights, np.zeros_like(u.weights)
    if isinstance(u, CES):
        return u.weights, np.full_like(u.weights, u.rho)
    return u.weights * u.exponents, u.exponents


def shares(C: np.ndarray, R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-wise bid shares t / sum(t), t = C * X**R, of strictly positive X."""
    t = C * X ** R
    return t / np.add.reduce(t, -1, keepdims=True)


def bid_shares(u: UtilitySpec, x) -> np.ndarray:
    """Simplex vector proportional to x_j * grad_j u(x)."""
    return shares(*share_row(u), _check_bundle(u, x))
