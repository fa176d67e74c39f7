import numpy as np
import pytest

from prdyn import CES, CobbDouglas, MarketSpec, Mode, SeparablePower, validate_market
from prdyn.errors import (
    EndowmentNotPartition,
    LazinessOutOfRange,
    NonPositiveBudget,
    UtilityParamInvalid,
)
from conftest import cobb_douglas_2x2


def test_wellformed_fisher_accepted():
    spec = cobb_douglas_2x2()
    assert validate_market(spec) is spec


def test_ces_rho_one_rejected():
    with pytest.raises(UtilityParamInvalid):
        CES(weights=[1.0, 1.0], rho=1.0)


def test_ces_rho_zero_rejected():
    with pytest.raises(UtilityParamInvalid):
        CES(weights=[1.0, 1.0], rho=0.0)


def test_nonpositive_weight_rejected():
    with pytest.raises(UtilityParamInvalid):
        CobbDouglas(weights=[0.5, -0.5])
    with pytest.raises(UtilityParamInvalid):
        CES(weights=[0.0, 1.0], rho=0.5)


@pytest.mark.parametrize("make", [
    lambda w: CobbDouglas(weights=w),
    lambda w: CES(weights=w, rho=0.5),
    lambda w: SeparablePower(weights=w, exponents=[0.5, 0.5]),
], ids=["cobb_douglas", "ces", "separable_power"])
def test_nonfinite_weight_rejected(make):
    for bad in (np.inf, np.nan):
        with pytest.raises(UtilityParamInvalid, match="finite"):
            make([bad, 1.0])


def test_cobb_douglas_weights_with_infinite_sum_rejected():
    # Normalizing by an infinite sum would turn every weight into NaN.
    with pytest.raises(UtilityParamInvalid, match="finite sum"):
        CobbDouglas(weights=[1e308, 1e308])


def test_overlapping_endowments_rejected():
    spec = MarketSpec(
        n_buyers=2,
        n_goods=2,
        utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.5, 0.5])),
        mode=Mode.EXCHANGE,
        endowments=((0,), (0, 1)),
        laziness=[0.5, 0.5],
    )
    with pytest.raises(EndowmentNotPartition):
        validate_market(spec)


def test_uncovered_good_rejected():
    spec = MarketSpec(
        n_buyers=2,
        n_goods=3,
        utilities=(CobbDouglas([1, 1, 1]), CobbDouglas([1, 1, 1])),
        mode=Mode.EXCHANGE,
        endowments=((0,), (1,)),
        laziness=[0.5, 0.5],
    )
    with pytest.raises(EndowmentNotPartition):
        validate_market(spec)


def test_laziness_out_of_range():
    spec = MarketSpec(
        n_buyers=2,
        n_goods=2,
        utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.5, 0.5])),
        mode=Mode.EXCHANGE,
        endowments=((0,), (1,)),
        laziness=[0.5, 1.0],
    )
    with pytest.raises(LazinessOutOfRange):
        validate_market(spec)


def test_negative_budget_rejected():
    spec = MarketSpec(
        n_buyers=1,
        n_goods=2,
        utilities=(CobbDouglas([0.5, 0.5]),),
        mode=Mode.FISHER,
        budgets=[-1.0],
    )
    with pytest.raises(NonPositiveBudget):
        validate_market(spec)


def test_infinite_budget_rejected():
    spec = MarketSpec(
        n_buyers=2,
        n_goods=2,
        utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.5, 0.5])),
        mode=Mode.FISHER,
        budgets=[np.inf, 1.0],
    )
    with pytest.raises(NonPositiveBudget, match="finite"):
        validate_market(spec)


def test_agent_without_goods_rejected():
    spec = MarketSpec(
        n_buyers=2,
        n_goods=2,
        utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([0.5, 0.5])),
        mode=Mode.EXCHANGE,
        endowments=((0, 1), ()),
        laziness=[0.5, 0.5],
    )
    with pytest.raises(EndowmentNotPartition, match="agent 1 owns no goods"):
        validate_market(spec)


def test_fisher_must_not_carry_exchange_fields():
    spec = MarketSpec(
        n_buyers=1,
        n_goods=1,
        utilities=(CobbDouglas([1.0]),),
        mode=Mode.FISHER,
        budgets=[1.0],
        laziness=[0.5],
    )
    with pytest.raises(UtilityParamInvalid):
        validate_market(spec)


def test_cobb_douglas_weights_normalized():
    u = CobbDouglas(weights=[2.0, 2.0])
    assert np.allclose(u.weights, [0.5, 0.5])
