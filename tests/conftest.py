import numpy as np
import pytest

from prdyn import CES, CobbDouglas, MarketSpec, Mode, SeparablePower, validate_market

FAMILIES = ["cobb_douglas", "ces", "separable_power"]


def random_utility(family, m, rng):
    w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
    if family == "cobb_douglas":
        return CobbDouglas(weights=w)
    if family == "ces":
        return CES(weights=w, rho=float(rng.uniform(0.2, 0.8)))
    return SeparablePower(weights=w, exponents=rng.uniform(0.2, 0.8, size=m))


def buyer_families(family, n):
    """One family name for every buyer, or a list of n per-buyer names."""
    return [family] * n if isinstance(family, str) else list(family)


def random_fisher_market(family, n, m, rng):
    utilities = tuple(random_utility(f, m, rng) for f in buyer_families(family, n))
    budgets = rng.uniform(0.5, 2.0, size=n)
    return validate_market(
        MarketSpec(n_buyers=n, n_goods=m, utilities=utilities, mode=Mode.FISHER, budgets=budgets)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cobb_douglas_2x2():
    return validate_market(
        MarketSpec(
            n_buyers=2,
            n_goods=2,
            utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.25, 0.75])),
            mode=Mode.FISHER,
            budgets=[1.0, 1.0],
        )
    )
