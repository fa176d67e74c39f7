import numpy as np
import pytest

from prdyn import CES, CobbDouglas, SeparablePower, bid_shares, eval_gradient, eval_utility
from prdyn.errors import NonPositiveBundle, UtilityParamInvalid
from conftest import FAMILIES, random_utility


class TestValues:
    def test_ces_example(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        assert eval_utility(u, [1.0, 1.0]) == pytest.approx(4.0, rel=1e-14)

    def test_cobb_douglas_identity_point(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        assert eval_utility(u, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)

    def test_separable_example(self):
        u = SeparablePower(weights=[1.0, 2.0], exponents=[0.5, 0.5])
        assert eval_utility(u, [4.0, 1.0]) == pytest.approx(4.0, rel=1e-14)

    def test_boundary_rejected(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        with pytest.raises(NonPositiveBundle):
            eval_utility(u, [0.0, 1.0])
        with pytest.raises(NonPositiveBundle):
            eval_gradient(u, [1.0, -1.0])
        for value in (np.inf, np.nan):
            for f in (eval_utility, eval_gradient, bid_shares):
                with pytest.raises(NonPositiveBundle, match="finite and strictly positive"):
                    f(u, [1.0, value])


class TestGradients:
    def test_cobb_douglas_identity(self):
        u = CobbDouglas(weights=[0.5, 0.5])
        assert np.allclose(eval_gradient(u, [1.0, 1.0]), [0.5, 0.5], rtol=1e-14)

    def test_ces_identity(self):
        u = CES(weights=[1.0, 1.0], rho=0.5)
        # u^{1-rho} * a_j * x_j^{rho-1} = 4^{0.5} at x = (1, 1)
        assert np.allclose(eval_gradient(u, [1.0, 1.0]), [2.0, 2.0], rtol=1e-14)

    def test_separable(self):
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.5, 0.5])
        assert np.allclose(eval_gradient(u, [4.0, 4.0]), [0.25, 0.25], rtol=1e-14)

    def test_finite_differences(self, rng):
        for k in range(500):
            family = FAMILIES[k % 3]
            m = int(rng.integers(1, 7))
            u = random_utility(family, m, rng)
            x = rng.uniform(0.1, 5.0, size=m)
            g = eval_gradient(u, x)
            for j in range(m):
                h = 1e-6 * x[j]
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (eval_utility(u, xp) - eval_utility(u, xm)) / (2 * h)
                assert abs(fd - g[j]) <= 1e-5 * abs(g[j])


class TestShapeProperties:
    def test_concavity(self, rng):
        for k in range(200):
            u = random_utility(FAMILIES[k % 3], 3, rng)
            x = rng.uniform(0.1, 5.0, 3)
            y = rng.uniform(0.1, 5.0, 3)
            lam = rng.uniform(0.05, 0.95)
            mid = eval_utility(u, lam * x + (1 - lam) * y)
            assert mid >= lam * eval_utility(u, x) + (1 - lam) * eval_utility(u, y) - 1e-12

    def test_monotonicity(self, rng):
        for k in range(100):
            u = random_utility(FAMILIES[k % 3], 4, rng)
            x = rng.uniform(0.1, 5.0, 4)
            base = eval_utility(u, x)
            for j in range(4):
                bumped = x.copy()
                bumped[j] += 1e-6
                assert eval_utility(u, bumped) > base

    def test_euler_identity_homogeneous(self, rng):
        for k in range(100):
            u = random_utility(FAMILIES[k % 2], 3, rng)  # cobb_douglas / ces only
            x = rng.uniform(0.1, 5.0, 3)
            value = eval_utility(u, x)
            assert abs(float(x @ eval_gradient(u, x)) - value) <= 1e-10 * abs(value)

    def test_euler_identity_fails_for_heterogeneous_exponents(self):
        u = SeparablePower(weights=[1.0, 1.0], exponents=[0.3, 0.7])
        x = np.array([2.0, 3.0])
        value = eval_utility(u, x)
        assert abs(float(x @ eval_gradient(u, x)) - value) > 1e-3 * abs(value)


class TestBidShares:
    def test_ces_example(self):
        u = CES(weights=[1.0, 3.0], rho=0.5)
        assert np.allclose(bid_shares(u, [1.0, 1.0]), [0.25, 0.75], rtol=1e-14)

    def test_cobb_douglas_independent_of_bundle(self, rng):
        u = CobbDouglas(weights=[0.3, 0.7])
        for _ in range(10):
            x = rng.uniform(0.1, 10.0, 2)
            assert np.allclose(bid_shares(u, x), [0.3, 0.7], rtol=1e-13)

    def test_single_good(self):
        for u in (CobbDouglas([2.0]), CES([1.5], 0.4), SeparablePower([1.0], [0.6])):
            assert np.allclose(bid_shares(u, [3.0]), [1.0])

    def test_simplex_and_weight_scale_invariance(self, rng):
        for k in range(100):
            m = int(rng.integers(1, 6))
            family = FAMILIES[k % 3]
            u = random_utility(family, m, rng)
            x = rng.uniform(0.1, 5.0, m)
            s = bid_shares(u, x)
            assert np.all(s > 0)
            assert abs(s.sum() - 1.0) <= 1e-14
            c = float(rng.uniform(0.1, 10.0))
            if family == "cobb_douglas":
                scaled = CobbDouglas(weights=c * u.weights)
            elif family == "ces":
                scaled = CES(weights=c * u.weights, rho=u.rho)
            else:
                scaled = SeparablePower(weights=c * u.weights, exponents=u.exponents)
            assert np.allclose(bid_shares(scaled, x), s, rtol=1e-12)


@pytest.mark.parametrize("call, error, words", [
    pytest.param(lambda: SeparablePower([1.0, 2.0], [0.5]), UtilityParamInvalid,
                 "exponents shape (1,) does not match weights shape (2,)",
                 id="exponents-shape"),
    pytest.param(lambda: SeparablePower([1.0, 2.0], [0.5, 0.0]), UtilityParamInvalid,
                 "exponents must lie in (0, 1)", id="exponent-zero"),
    pytest.param(lambda: SeparablePower([1.0, 2.0], [1.0, 0.5]), UtilityParamInvalid,
                 "exponents must lie in (0, 1)", id="exponent-one"),
    pytest.param(lambda: SeparablePower([1.0, 2.0], [0.5, np.nan]), UtilityParamInvalid,
                 "exponents must lie in (0, 1)", id="exponent-nan"),
    pytest.param(lambda: eval_utility(CES([1.0, 2.0], 0.5), [1.0, 1.0, 1.0]), NonPositiveBundle,
                 "bundle shape (3,) does not match 2 goods", id="utility-bundle-shape"),
    pytest.param(lambda: eval_gradient(CobbDouglas([1.0, 2.0]), [[1.0, 1.0]]), NonPositiveBundle,
                 "bundle shape (1, 2) does not match 2 goods", id="gradient-bundle-shape"),
    pytest.param(lambda: bid_shares(SeparablePower([1.0, 2.0], [0.3, 0.6]), [1.0]),
                 NonPositiveBundle, "bundle shape (1,) does not match 2 goods",
                 id="shares-bundle-shape"),
])
def test_malformed_utility_input_rejected(call, error, words):
    with pytest.raises(error) as raised:
        call()
    assert words in str(raised.value)
