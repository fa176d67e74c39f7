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


by_family = pytest.mark.parametrize("make", [
    lambda w: CobbDouglas(weights=w),
    lambda w: CES(weights=w, rho=0.5),
    lambda w: SeparablePower(weights=w, exponents=[0.5, 0.5]),
], ids=["cobb_douglas", "ces", "separable_power"])


@by_family
def test_nonfinite_weight_rejected(make):
    for bad in (np.inf, np.nan):
        with pytest.raises(UtilityParamInvalid, match="finite"):
            make([bad, 1.0])


@by_family
def test_weights_with_infinite_sum_rejected(make):
    # Normalizing by an infinite sum would turn every weight into NaN, and
    # the share kernel's normalizer sum_j c_j x_j^{r_j} could overflow.
    with pytest.raises(UtilityParamInvalid, match="finite sum"):
        make([1e308, 1e308])


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


def _spec(mode, n=2, m=2, utilities=None, **fields):
    """A 2x2 Cobb-Douglas market of `mode` with `fields` in place of its own."""
    if utilities is None:
        utilities = (CobbDouglas([0.5, 0.5]),) * n
    if mode is Mode.FISHER:
        own = {"budgets": [1.0] * n}
    else:
        own = {"endowments": ((0,), (1,)), "laziness": [0.5] * n}
    return MarketSpec(n_buyers=n, n_goods=m, utilities=utilities, mode=mode, **{**own, **fields})


@pytest.mark.parametrize("make, error, words", [
    pytest.param(lambda: _spec(Mode.FISHER, n=0, utilities=(), budgets=[]),
                 UtilityParamInvalid, "at least one buyer and one good", id="no-buyers"),
    pytest.param(lambda: _spec(Mode.FISHER, m=0, utilities=(CobbDouglas([1.0]),) * 2),
                 UtilityParamInvalid, "at least one buyer and one good", id="no-goods"),
    pytest.param(lambda: _spec(Mode.FISHER, utilities=(CobbDouglas([0.5, 0.5]),)),
                 UtilityParamInvalid, "expected 2 utilities, got 1", id="too-few-utilities"),
    pytest.param(lambda: _spec(Mode.FISHER,
                               utilities=(CobbDouglas([0.5, 0.5]), CobbDouglas([1, 1, 1]))),
                 UtilityParamInvalid, "buyer 1: utility covers 3 goods, market has 2",
                 id="utility-over-wrong-goods"),
    pytest.param(lambda: _spec(Mode.FISHER, budgets=None),
                 NonPositiveBudget, "requires budgets", id="fisher-without-budgets"),
    pytest.param(lambda: _spec(Mode.FISHER, budgets=[1.0, 1.0, 1.0]),
                 NonPositiveBudget, "budgets shape (3,), expected (2,)", id="budgets-shape"),
    pytest.param(lambda: _spec(Mode.EXCHANGE, budgets=[1.0, 1.0]),
                 UtilityParamInvalid, "must not carry budgets", id="exchange-with-budgets"),
    pytest.param(lambda: _spec(Mode.EXCHANGE, endowments=None),
                 EndowmentNotPartition, "requires endowments and laziness",
                 id="exchange-without-endowments"),
    pytest.param(lambda: _spec(Mode.EXCHANGE, laziness=None),
                 EndowmentNotPartition, "requires endowments and laziness",
                 id="exchange-without-laziness"),
    pytest.param(lambda: _spec(Mode.EXCHANGE, endowments=((0, 1),)),
                 EndowmentNotPartition, "expected 2 endowment sets, got 1",
                 id="endowment-set-count"),
    pytest.param(lambda: _spec(Mode.EXCHANGE, laziness=[0.5, 0.5, 0.5]),
                 LazinessOutOfRange, "laziness shape (3,), expected (2,)", id="laziness-shape"),
])
def test_malformed_market_rejected(make, error, words):
    with pytest.raises(error) as raised:
        validate_market(make())
    assert words in str(raised.value)
