import io
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ive
from scipy.stats import norm

from msfcev import pricing, specfun
from msfcev.errors import DomainError, NumericalError
from msfcev.pricing import (MODEL_NAMES, Driver, Family, MarketEnv, ModelSpec,
                            black_scholes_call, call_price, call_prices,
                            cev_intermediates, chain_prices, diffusion_kernel,
                            driver_variance, effective_variance, price_curve,
                            transition_density, write_price_curve_csv)
from msfcev.process import MixedDriverParams
from msfcev.verify import effective_variance_quadrature, quadrature_price


def make(name, **kw):
    kw.setdefault("sigma", 0.3)
    return ModelSpec.make(name, **kw)


def density_oracle(model, env, maturity, s_t):
    """Independent route: quadrature Phi + scipy Bessel."""
    k = 1.0 / effective_variance_quadrature(model, env, maturity)
    a = model.alpha
    y = k * env.spot ** (2 - a) * math.exp(env.rate * (2 - a) * maturity)
    w = k * s_t ** (2 - a)
    nu = 1.0 / (2 - a)
    arg = 2.0 * math.sqrt(y * w)
    return ((2 - a) * k ** nu * (y * w ** (1 - 2 * a)) ** (nu / 2)
            * float(ive(nu, arg)) * math.exp(arg - y - w))


class TestDiffusionKernel:
    def test_classical_limit(self):
        for t in (0.1, 1.0, 7.0):
            assert diffusion_kernel(Driver.MIXED_SUB_FRACTIONAL, 0.5, t) == 0.5
            assert diffusion_kernel(Driver.MIXED_FRACTIONAL, 0.5, t) == 0.5
            assert diffusion_kernel(Driver.CLASSICAL, 0.5, t) == 0.5

    def test_subfractional_value(self):
        expected = 0.9 * 2.0 ** 0.8 * (2.0 - 2.0 ** 0.8)
        assert diffusion_kernel(Driver.MIXED_SUB_FRACTIONAL, 0.9, 2.0) == \
            pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.4056922, abs=1e-7)

    def test_fractional_value(self):
        assert diffusion_kernel(Driver.MIXED_FRACTIONAL, 0.7, 2.0) == \
            pytest.approx(0.7 * 2.0 ** 0.4, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            diffusion_kernel(Driver.MIXED_SUB_FRACTIONAL, 0.4, 1.0)
        with pytest.raises(DomainError):
            diffusion_kernel(Driver.MIXED_SUB_FRACTIONAL, 1.0, 1.0)
        with pytest.raises(DomainError):
            diffusion_kernel(Driver.MIXED_SUB_FRACTIONAL, 0.7, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        # t^(2H-1) would return NaN or inf
        for driver in Driver:
            with pytest.raises(DomainError, match="finite"):
                diffusion_kernel(driver, 0.7, t)

    @pytest.mark.parametrize("driver", list(Driver))
    @pytest.mark.parametrize("hurst", [0.5, 0.6, 0.75, 0.9])
    def test_broadcasts_as_its_scalar_calls(self, driver, hurst):
        ts = np.array([0.0, 1e-3, 0.37, 1.0, 2.0, 7.5])
        got = diffusion_kernel(driver, hurst, ts)
        assert got.shape == ts.shape
        for t, value in zip(ts.tolist(), got.tolist()):
            scalar = diffusion_kernel(driver, hurst, t)
            assert type(scalar) is float
            assert scalar == value  # bit for bit
        # the one call the forward equation makes over its time grid
        grid = diffusion_kernel(driver, hurst, np.linspace(0.0, 2.0, 601))
        assert grid.tolist() == [diffusion_kernel(driver, hurst, t)
                                 for t in np.linspace(0.0, 2.0, 601).tolist()]

    def test_bad_element_of_array_rejected(self):
        with pytest.raises(DomainError, match="times must be finite and >= 0"):
            diffusion_kernel(Driver.MIXED_FRACTIONAL, 0.7, np.array([1.0, -1.0]))


class TestModelSpec:
    def test_classical_canonicalization(self):
        m = ModelSpec(family=Family.CEV, driver=Driver.CLASSICAL, sigma=0.3,
                      alpha=1.0,
                      driver_params=MixedDriverParams(hurst=0.8, beta=1.0,
                                                      gamma=1.0))
        assert m.driver_params.beta == pytest.approx(math.sqrt(2.0))
        assert m.driver_params.gamma == 0.0
        assert m.driver_params.hurst == 0.5

    def test_bs_ignores_alpha(self):
        m = make("bs", alpha=0.3)
        assert m.alpha == 2.0

    def test_gates(self):
        with pytest.raises(DomainError):
            make("cev", alpha=2.0)
        with pytest.raises(DomainError):
            make("cev", alpha=-0.1)
        with pytest.raises(DomainError):
            make("msfcev", hurst=0.49)
        with pytest.raises(DomainError):
            make("msfcev", hurst=1.0)
        with pytest.raises(DomainError):
            make("msfcev", sigma=0.0)
        with pytest.raises(DomainError):
            ModelSpec.make("nope", sigma=0.3)
        # H = 1/2 is the admitted classical limit
        make("msfcev", hurst=0.5)

    def test_market_env_gates(self):
        with pytest.raises(DomainError):
            MarketEnv(rate=-0.01, spot=100.0)
        with pytest.raises(DomainError):
            MarketEnv(rate=0.01, spot=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["sigma", "alpha", "hurst", "beta",
                                       "gamma"])
    def test_non_finite_parameters_rejected(self, field, bad):
        # hurst and negative weights already fail MixedDriverParams' range
        # checks; ModelSpec catches the rest
        for name in ("msfcev", "bs"):
            with pytest.raises(DomainError):
                make(name, **{field: bad})

    @pytest.mark.parametrize("name", ["cev", "msfbs", "msfcev"])
    def test_sigma_whose_square_overflows_rejected(self, name):
        # the clocks square sigma, and a Python float's ** 2 raises
        # OverflowError from 2^512 up
        for bad in (1e200, 2.0 ** 512):
            with pytest.raises(DomainError, match="sigma"):
                make(name, sigma=bad)
        make(name, sigma=math.nextafter(2.0 ** 512, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_market_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            MarketEnv(rate=bad, spot=100.0)
        with pytest.raises(DomainError, match="finite"):
            MarketEnv(rate=0.05, spot=bad)


class TestEffectiveVariance:
    def test_classical_beta_only(self, env100):
        m = make("cev", alpha=1.0, beta=1.0, gamma=0.0)
        expected = 0.09 * (math.exp(0.05) - 1.0) / 0.1
        assert effective_variance(m, env100, 1.0) == pytest.approx(expected,
                                                                   rel=1e-13)

    def test_h_half_doubles_beta_only(self, env100):
        for name in ("mfcev", "msfcev"):
            m = make(name, alpha=0.7, hurst=0.5, beta=1.0, gamma=1.0)
            base = make("cev", alpha=0.7, beta=1.0, gamma=0.0)
            assert effective_variance(m, env100, 1.3) == pytest.approx(
                2.0 * effective_variance(base, env100, 1.3), rel=1e-14)

    def test_whittaker_form_cross_check(self, env100):
        # gamma part written with the Whittaker entry point directly
        sigma, a, h, t, r = 0.3, 1.2, 0.7, 1.5, env100.rate
        m = make("msfcev", alpha=a, hurst=h, beta=1.0, gamma=1.0)
        z = (2 - a) * r * t
        brace = (2 * h + 1.0 + math.exp(0.5 * z) * z ** (-h)
                 * float(mpmath.whitm(h, h + 0.5, z)))
        gamma_part = (sigma ** 2 * (2 - a) ** 2 / (2 * h + 1.0) * t ** (2 * h)
                      * (1.0 - 2.0 ** (2 * h - 2.0)) * brace)
        beta_part = (sigma ** 2 / (2 * r) * (2 - a)
                     * (math.exp((2 - a) * r * t) - 1.0))
        assert effective_variance(m, env100, t) == pytest.approx(
            gamma_part + beta_part, rel=1e-12)

    @pytest.mark.parametrize("h", [0.5, 0.75, 0.99])
    def test_kummer_factors_match_mpmath(self, h):
        # sigma 1, alpha 0, T 1 and r = z/2 make Phi exactly 2 M(1, 2, z)
        # (classical driver) and 2 M(1, 1+2H, z) (fractional part alone)
        beta_only = make("cev", sigma=1.0, alpha=0.0)
        gamma_only = make("mfcev", sigma=1.0, alpha=0.0, hurst=h, beta=0.0,
                          gamma=1.0)
        b = 1.0 + 2.0 * h
        for z in np.linspace(0.0, 0.5, 51):
            env = MarketEnv(rate=0.5 * float(z), spot=100.0)
            with mpmath.workdps(50):
                m1 = mpmath.hyp1f1(1, 2, float(z))
                mh = mpmath.hyp1f1(1, b, float(z))
                got1 = mpmath.mpf(0.5 * effective_variance(beta_only, env, 1.0))
                goth = mpmath.mpf(0.5 * effective_variance(gamma_only, env, 1.0))
                assert abs(got1 - m1) <= 1e-15 * m1
                assert abs(goth - mh) <= 1e-15 * mh
        zero = MarketEnv(rate=0.0, spot=100.0)
        assert effective_variance(beta_only, zero, 1.0) == 2.0
        assert effective_variance(gamma_only, zero, 1.0) == 2.0

    def test_matches_mpmath_on_table_rows(self, mpmath_table_rows):
        # every row of the 80-digit price table, Phi against 50-digit mpmath
        # of the same closed form on the same float inputs
        assert len(mpmath_table_rows) == 63
        for row in mpmath_table_rows:
            s, a, h, r, t = (float(row[k]) for k in
                             ("sigma", "alpha", "hurst", "rate", "maturity"))
            m = ModelSpec.make(row["model"], sigma=s, alpha=a, hurst=h)
            phi = effective_variance(m, MarketEnv(rate=r, spot=100.0), t)
            p = m.driver_params
            with mpmath.workdps(50):
                z = mpmath.mpf((2.0 - a) * r * t)
                weight = 2 - mpmath.power(2, 2 * mpmath.mpf(h) - 1)
                ref = (mpmath.mpf(s) ** 2 * (2 - mpmath.mpf(a)) ** 2
                       * (mpmath.mpf(p.beta) ** 2 / 2 * t * mpmath.hyp1f1(1, 2, z)
                          + mpmath.mpf(p.gamma) ** 2 / 2 * weight
                          * mpmath.power(t, 2 * mpmath.mpf(h))
                          * mpmath.hyp1f1(1, 1.0 + 2.0 * h, z)))
                assert abs(phi - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("name,h", [("msfcev", 0.51), ("msfcev", 0.55),
                                        ("msfcev", 0.7), ("mfcev", 0.9),
                                        ("mfcev", 0.999), ("cev", 0.5)])
    @pytest.mark.parametrize("alpha,t,rate", [(0.5, 0.25, 0.05), (1.0, 2.0, 0.05),
                                              (1.5, 1.0, 0.0), (1.999, 0.01, 0.2),
                                              (1.999, 10.0, 0.0), (0.0, 10.0, 0.2)])
    def test_closed_matches_quadrature(self, name, h, alpha, t, rate):
        env = MarketEnv(rate=rate, spot=100.0)
        m = make(name, alpha=alpha, hurst=h)
        closed = effective_variance(m, env, t)
        quad = effective_variance_quadrature(m, env, t)
        assert closed == pytest.approx(quad, rel=1e-14, abs=0.0)

    def test_monotonic_in_t_and_sigma(self, env100):
        m = make("msfcev", alpha=1.2, hurst=0.7)
        ts = np.linspace(0.1, 3.0, 12)
        vals = [effective_variance(m, env100, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        sigmas = np.linspace(0.1, 1.0, 8)
        vals = [effective_variance(replace(m, sigma=float(s)), env100, 1.0)
                for s in sigmas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_subfractional_below_fractional(self, env100):
        for h in (0.6, 0.7, 0.9):
            msf = make("msfcev", alpha=1.0, hurst=h)
            mf = make("mfcev", alpha=1.0, hurst=h)
            assert effective_variance(msf, env100, 1.0) < \
                effective_variance(mf, env100, 1.0)

    def test_domain(self, env100):
        with pytest.raises(DomainError):
            effective_variance(make("msfcev"), env100, 0.0)
        with pytest.raises(DomainError):
            effective_variance(make("bs"), env100, 1.0)


class TestIntermediates:
    def test_classical_matches_direct_k(self, env100):
        for alpha in (0.5, 1.0, 1.5):
            for t in (0.25, 2.0):
                m = make("cev", alpha=alpha, beta=1.0, gamma=0.0)
                ints = cev_intermediates(m, env100, t, 100.0)
                k = 2 * env100.rate / (m.sigma ** 2 * (2 - alpha)
                                       * (math.exp(env100.rate * (2 - alpha) * t)
                                          - 1.0))
                assert ints.k_s == pytest.approx(k, rel=1e-12)

    def test_values_beta_only(self, env100):
        m = make("cev", alpha=1.0, beta=1.0, gamma=0.0)
        ints = cev_intermediates(m, env100, 1.0, 100.0)
        phi = 0.09 * (math.exp(0.05) - 1.0) / 0.1
        assert ints.phi == pytest.approx(phi, rel=1e-13)
        assert ints.k_s == pytest.approx(1.0 / phi, rel=1e-13)
        assert ints.y_s == pytest.approx(100.0 * math.exp(0.05) / phi, rel=1e-13)
        assert ints.z_s == pytest.approx(100.0 / phi, rel=1e-13)

    def test_strike_to_zero(self, env100):
        m = make("msfcev", alpha=1.2, hurst=0.7)
        small = cev_intermediates(m, env100, 1.0, 1e-8)
        smaller = cev_intermediates(m, env100, 1.0, 1e-10)
        assert small.z_s < 1e-4
        assert smaller.z_s < small.z_s
        with pytest.raises(DomainError):
            cev_intermediates(m, env100, 1.0, 0.0)


class TestTransitionDensity:
    def test_matches_independent_route(self, env100):
        cases = [
            (make("cev", alpha=1.0, beta=1.0, gamma=0.0), 1.0),
            (make("msfcev", alpha=1.5, hurst=0.7), 0.25),
            (make("mfcev", alpha=0.5, hurst=0.9), 2.0),
        ]
        for model, t in cases:
            for s_t in (60.0, 95.0, 110.0, 160.0):
                mine = transition_density(model, env100, t, s_t)
                ref = density_oracle(model, env100, t, s_t)
                assert mine == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_integral_is_one_alpha_one(self, env100):
        m = make("cev", alpha=1.0, beta=1.0, gamma=0.0)
        mass, _ = integrate.quad(
            lambda s: transition_density(m, env100, 1.0, s), 1e-9, 400.0,
            epsabs=1e-10, epsrel=1e-9, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unimodal_nonnegative(self, env100):
        m = make("msfcev", alpha=1.5, hurst=0.7)
        grid = np.geomspace(40.0, 250.0, 120)
        dens = transition_density(m, env100, 0.25, grid)
        assert np.all(dens >= 0.0)
        peak = int(np.argmax(dens))
        assert np.all(np.diff(dens[:peak + 1]) >= -1e-12)
        assert np.all(np.diff(dens[peak:]) <= 1e-12)

    def test_domain(self, env100):
        m = make("msfcev", alpha=1.0, hurst=0.7)
        with pytest.raises(DomainError):
            transition_density(m, env100, 1.0, 0.0)
        with pytest.raises(DomainError):
            transition_density(make("bs"), env100, 1.0, 100.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, env100, bad):
        m = make("msfcev", alpha=1.0, hurst=0.7)
        with pytest.raises(DomainError, match="finite"):
            transition_density(m, env100, bad, 100.0)
        with pytest.raises(DomainError, match="finite"):
            transition_density(m, env100, 1.0, np.array([90.0, bad]))

    def test_nan_near_alpha_two_raises(self):
        # at order 1e6 neither Amos nor Hankel's expansion evaluates the
        # Bessel factor; the NaN is reported, not returned as a density
        m = make("cev", sigma=1.5, alpha=1.999999)
        env = MarketEnv(rate=0.05, spot=100.0)
        with pytest.raises(NumericalError, match=r"cev density .* maturity 20\.0"):
            transition_density(m, env, 20.0, np.array([50.0, 100.0]))

    def test_array_matches_pointwise(self, env100):
        m = make("msfcev", alpha=1.4, hurst=0.8)
        grid = np.linspace(20.0, 300.0, 57)
        dens = transition_density(m, env100, 0.7, grid)
        assert dens.shape == grid.shape
        for s_t, d in zip(grid, dens):
            assert transition_density(m, env100, 0.7, float(s_t)) == d


class TestChainPrices:
    MATURITIES = (0.25, 1.0, 2.0)
    RATES = (0.01, 0.05)
    STRIKES = np.linspace(70.0, 150.0, 9)

    @pytest.mark.parametrize("name", ["bs", "mfbs", "msfbs", "cev", "mfcev",
                                      "msfcev"])
    def test_equals_call_prices_slices_bit_for_bit(self, name):
        m = make(name, alpha=0.8, hurst=0.75)
        ts, rs, ks, slices = [], [], [], []
        for r in self.RATES:
            for t in self.MATURITIES:
                ts += [t] * self.STRIKES.size
                rs += [r] * self.STRIKES.size
                ks += self.STRIKES.tolist()
                slices.append(call_prices(m, MarketEnv(rate=r, spot=100.0), t,
                                          self.STRIKES))
        chain = chain_prices(m, 100.0, np.array(ts), np.array(rs),
                             np.array(ks))
        np.testing.assert_array_equal(chain, np.concatenate(slices))

    @pytest.mark.parametrize("name", ["bs", "mfbs", "msfbs", "cev", "mfcev",
                                      "msfcev"])
    def test_no_strikes_price_to_empty(self, env100, name):
        m = make(name, alpha=0.8, hurst=0.75)
        for prices in (call_prices(m, env100, 1.0, []),
                       chain_prices(m, 100.0, [], [], [])):
            assert isinstance(prices, np.ndarray) and prices.shape == (0,)
        if m.family == Family.CEV:
            assert transition_density(m, env100, 1.0, []).shape == (0,)
        # a NaN strike still raises
        with pytest.raises(DomainError, match="strikes must be positive"):
            call_prices(m, env100, 1.0, [math.nan])
        with pytest.raises(DomainError, match="strikes must be positive"):
            chain_prices(m, 100.0, [1.0], [0.05], [math.nan])

    def test_scalars_broadcast(self, env100):
        m = make("msfcev", alpha=1.2, hurst=0.75)
        one = chain_prices(m, 100.0, 1.0, 0.05, 100.0)
        assert one.shape == (1,)
        assert one[0] == call_price(m, env100, 1.0, 100.0)
        ts = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(
            chain_prices(m, 100.0, ts, 0.05, 100.0),
            [call_price(m, env100, float(t), 100.0) for t in ts])

    @pytest.mark.parametrize("name", ["msfcev", "bs"])
    def test_bad_quotes_rejected(self, name):
        m = make(name, alpha=1.2, hurst=0.75)
        good = np.array([1.0, 2.0])
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError, match="maturity"):
                chain_prices(m, 100.0, [1.0, bad], 0.05, good)
            with pytest.raises(DomainError, match="strikes"):
                chain_prices(m, 100.0, good, 0.05, [100.0, bad])
            with pytest.raises(DomainError, match="spot"):
                chain_prices(m, bad, good, 0.05, 100.0)
        for bad in (math.nan, math.inf, -0.01):
            with pytest.raises(DomainError, match="rate"):
                chain_prices(m, 100.0, good, [0.05, bad], 100.0)

    @pytest.mark.parametrize("name", sorted(MODEL_NAMES))
    def test_call_prices_is_chain_prices_bit_for_bit(self, name, monkeypatch):
        # call_prices keeps the maturity and rate scalar; a chain carries them
        # per quote.  The CEV slices reach both quadrature routes: nc above
        # 5e3 (alpha 1.9 and 1.99) and tails below the kernels' 1e-60 floor
        quadrature, quad_ncs = specfun._tail_quadrature, []

        def spy(x, df, nc, upper):
            quad_ncs.extend(nc)
            return quadrature(x, df, nc, upper)

        monkeypatch.setattr(specfun, "_tail_quadrature", spy)
        env = MarketEnv(rate=0.03, spot=100.0)
        for alpha in (0.0, 0.6, 1.2, 1.9, 1.99):
            sigma = 0.3 * 100.0 ** (1.0 - 0.5 * alpha)
            m = make(name, sigma=sigma, alpha=alpha, hurst=0.65)
            for t in (0.1, 1.0, 5.0):
                strikes = 100.0 * np.exp(0.03 * t + np.linspace(-6.0, 6.0, 25)
                                         * 0.3 * math.sqrt(t))
                n = strikes.size
                np.testing.assert_array_equal(
                    call_prices(m, env, t, strikes),
                    chain_prices(m, 100.0, np.full(n, t), np.full(n, 0.03), strikes))
        if name.endswith("cev"):
            assert max(quad_ncs) > specfun._SERIES_NC_MAX
            assert min(quad_ncs) <= specfun._SERIES_NC_MAX

    def test_bs_broadcasts_over_maturity_and_rate(self):
        p = MixedDriverParams(hurst=0.7, beta=1.0, gamma=1.0)
        ts = np.array([0.1, 1.0, 3.0])
        rs = np.array([0.0, 0.02, 0.05])
        vs = 0.04 * driver_variance(Driver.MIXED_SUB_FRACTIONAL, p, ts)
        for i, t in enumerate(ts):
            assert vs[i] == 0.04 * driver_variance(Driver.MIXED_SUB_FRACTIONAL,
                                                   p, float(t))
        got = black_scholes_call(100.0, 105.0, rs, ts, vs)
        pointwise = [black_scholes_call(100.0, 105.0, float(r), float(t),
                                        float(v))
                     for r, t, v in zip(rs, ts, vs)]
        np.testing.assert_allclose(got, pointwise, rtol=1e-14)
        # zero total variance is intrinsic value
        assert black_scholes_call(100.0, 90.0, 0.05, 1.0, 0.0) == \
            pytest.approx(100.0 - 90.0 * math.exp(-0.05), rel=1e-15)


def four_tail_prices(model, spot, t, r, k):
    """Both tails at every point, then the price by moneyness, as each form reads it.

    The reference for the per-quote choice of tails in ``chain_prices``:
    the same coordinates, the survival and the distribution function of the
    Q1 side ``(2z, df0 + 2, 2y)`` and of the Q2 side ``(2y, df0, 2z)`` at
    every quote, the in-the-money form where S0 >= K e^(-rT) and the
    out-of-the-money form elsewhere, clamped to the no-arbitrage bounds.
    """
    _, y, z = pricing._cev_coordinates(model, spot, t, r, k)
    df0 = 2.0 / (2.0 - model.alpha)
    q1, q2 = (2.0 * z, 2.0 + df0, 2.0 * y), (2.0 * y, df0, 2.0 * z)
    sf1, cdf1, sf2, cdf2 = (specfun.chi2_noncentral_sf_cdf(*q, upper=upper)
                            for q in (q1, q2) for upper in (True, False))
    e = k * np.exp(-r * t)
    itm_form = (spot - e) + e * sf2 - spot * cdf1
    otm_form = spot * sf1 - e * cdf2
    price = np.where(spot >= e, itm_form, otm_form)
    return np.minimum(np.maximum(price, np.maximum(spot - e, 0.0)), spot)


@pytest.fixture
def kernel_points(monkeypatch):
    """Points each chi-squared tail evaluates, summed over its kernels.

    A series kernel's points are counted through its ``where`` mask; the
    density quadrature that takes the large non-centralities counts each
    point as the tail its ``upper`` flag asks for.  The quadrature also
    re-evaluates a series point whose kernel put its tail below the kernel
    floor; those points count under ``again``, as the same tail a second
    time.
    """
    counts = {"sf": 0, "cdf": 0, "again": 0}
    tail_quadrature = specfun._tail_quadrature

    def quadrature(x, df, nc, upper):
        far = nc > specfun._SERIES_NC_MAX
        counts["sf"] += int(np.count_nonzero(upper & far))
        counts["cdf"] += int(np.count_nonzero(~upper & far))
        counts["again"] += int(np.count_nonzero(~far))
        return tail_quadrature(x, df, nc, upper)

    def counted(kernel, key):
        def wrapper(*args, out=None, where=True):
            shape = np.broadcast_shapes(*(np.shape(a) for a in args))
            counts[key] += int(np.count_nonzero(np.broadcast_to(where, shape)))
            return kernel(*args, out=out, where=where)
        return wrapper

    monkeypatch.setattr(specfun, "_ncx2_sf", counted(specfun._ncx2_sf, "sf"))
    monkeypatch.setattr(specfun.special, "chdtrc",
                        counted(specfun.special.chdtrc, "sf"))
    monkeypatch.setattr(specfun.special, "chndtr",
                        counted(specfun.special.chndtr, "cdf"))
    monkeypatch.setattr(specfun, "_tail_quadrature", quadrature)
    return counts


class TestTailChoice:
    """``chain_prices`` evaluates only the two tails each quote's form uses."""

    SPOT, RATE = 100.0, 0.05
    MATURITIES = (0.1, 1.0, 5.0)

    def chain(self):
        """Strikes from 8 sd in the money to 8 out at each maturity.

        Every maturity includes K = S0 e^(rT) exactly, where the two forms
        switch, and the floats either side of it.
        """
        ts, ks = [], []
        for t in self.MATURITIES:
            switch = self.SPOT * math.exp(self.RATE * t)
            ladder = switch * np.exp(np.linspace(-8.0, 8.0, 13) * 0.3 * math.sqrt(t))
            strikes = np.concatenate((ladder, [switch, np.nextafter(switch, 0.0),
                                               np.nextafter(switch, math.inf)]))
            ts += [t] * strikes.size
            ks += strikes.tolist()
        return np.array(ts), np.array(ks)

    @pytest.mark.parametrize("name", sorted(MODEL_NAMES))
    def test_same_prices_as_four_tails_bit_for_bit(self, name, kernel_points):
        t, k = self.chain()
        n = k.size
        assert (self.SPOT >= k * np.exp(-self.RATE * t)).any()
        assert (self.SPOT < k * np.exp(-self.RATE * t)).any()
        for alpha in (0.0, 0.5, 1.0, 1.5, 1.99, 1.999):
            # 30% at-the-money volatility whatever the model and alpha
            sigma = 0.3 * (self.SPOT ** (1.0 - 0.5 * alpha) if "cev" in name else 1.0)
            if name not in ("bs", "cev"):
                sigma /= math.sqrt(2.0)
            m = make(name, sigma=sigma, alpha=alpha, hurst=0.75)
            kernel_points.update(sf=0, cdf=0, again=0)
            got = chain_prices(m, self.SPOT, t, self.RATE, k)
            if m.family == Family.BS:
                # no chi-squared tail at all; the closed form is unchanged
                assert kernel_points == {"sf": 0, "cdf": 0, "again": 0}
                v = m.sigma ** 2 * driver_variance(m.driver, m.driver_params, t)
                np.testing.assert_array_equal(
                    got, black_scholes_call(self.SPOT, k, self.RATE, t, v))
                continue
            # n of each; evaluating both tails at both sides took 2n of each.
            # Tails a kernel put below the floor are evaluated again, not the
            # other tail
            assert kernel_points["sf"] == kernel_points["cdf"] == n
            assert kernel_points["again"] <= n
            assert np.array_equal(got, four_tail_prices(m, self.SPOT, t, self.RATE, k))

    def test_prices_match_mpmath_table(self, mpmath_table_rows):
        # every row of the 80-digit price table through chain_prices
        assert len(mpmath_table_rows) == 63
        for row in mpmath_table_rows:
            s, a, h, r, t, spot, k = (float(row[key]) for key in (
                "sigma", "alpha", "hurst", "rate", "maturity", "spot", "strike"))
            m = ModelSpec.make(row["model"], sigma=s, alpha=a, hurst=h)
            ref = mpmath.mpf(row["price"])
            got = chain_prices(m, spot, t, r, k)[0]
            assert abs(got - ref) <= 1e-10 * ref, (row, got)


# the admissible CEV domain: alpha up to 1.999, at-the-money volatility 5% to
# 80%, maturities up to 5 years, strikes up to 8 sd either side of the forward
cev_models = st.builds(
    lambda name, alpha, vol, hurst: make(
        name, alpha=alpha, hurst=hurst,
        sigma=vol * 100.0 ** (1.0 - 0.5 * alpha)
        / (1.0 if name == "cev" else math.sqrt(2.0))),
    st.sampled_from(("cev", "mfcev", "msfcev")),
    st.one_of(st.sampled_from((0.0, 1.99, 1.999)), st.floats(0.0, 1.999)),
    st.floats(0.05, 0.8),
    st.floats(0.5, 0.95))
rates = st.floats(0.0, 0.1)
maturities = st.floats(0.02, 5.0)
# centre of a strike ladder in sd of log-moneyness from K = S0 e^(rT), where
# the price switches form; 0 puts the switch in the middle of the ladder
moneyness = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))
# float rounding of prices assembled from terms of the size of the spot
PRICE_TOL = 1e-12 * 100.0


def switch_ladder(rate, t, m, vol_t, step):
    """Nine strikes around S0 e^(rT + m vol_t), ``step`` of the centre apart."""
    centre = 100.0 * math.exp(rate * t + m * vol_t)
    return centre * (1.0 + step * np.arange(-4.0, 5.0))


class TestPriceProperties:
    """No-arbitrage properties of the CEV price over the admissible domain."""

    @given(model=cev_models, rate=rates, t=maturities, m=moneyness,
           step=st.floats(1e-3, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_within_no_arbitrage_bounds(self, model, rate, t, m, step):
        strikes = switch_ladder(rate, t, m, 0.3 * math.sqrt(t), step)
        prices = chain_prices(model, 100.0, t, rate, strikes)
        lower = np.maximum(100.0 - strikes * math.exp(-rate * t), 0.0)
        assert np.all(prices >= lower - PRICE_TOL)
        assert np.all(prices <= 100.0 + PRICE_TOL)

    @given(model=cev_models, rate=rates, t=maturities, m=moneyness,
           step=st.floats(1e-3, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_and_convex_in_strike(self, model, rate, t, m, step):
        strikes = switch_ladder(rate, t, m, 0.3 * math.sqrt(t), step)
        prices = chain_prices(model, 100.0, t, rate, strikes)
        assert np.all(np.diff(prices) <= PRICE_TOL)
        # equal spacing: convexity is a non-negative second difference
        assert np.all(np.diff(prices, 2) >= -PRICE_TOL)

    @given(model=cev_models, rate=rates, t=maturities, m=moneyness,
           later=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_non_decreasing_in_maturity(self, model, rate, t, m, later):
        strike = 100.0 * math.exp(rate * t + m * 0.3 * math.sqrt(t))
        ts = t * (1.0 + later * np.linspace(0.0, 1.0, 5))
        prices = chain_prices(model, 100.0, ts, rate, strike)
        assert np.all(np.diff(prices) >= -PRICE_TOL)

    @given(name=st.sampled_from(("cev", "mfcev", "msfcev")),
           alpha=st.floats(0.0, 1.99), t=st.floats(0.05, 5.0),
           vol=st.floats(0.1, 0.8), hurst=st.floats(0.5, 0.95), rate=rates,
           log_k=st.floats(math.log(0.25), math.log(4.0)))
    @settings(max_examples=100, deadline=1000)
    def test_payoff_quadrature_matches_price(self, name, alpha, t, vol, hurst,
                                             rate, log_k):
        # the independent oracle: the discounted payoff against the
        # transition density, wherever the price is a normal float64 well
        # above the underflow, and E[S_T] e^(-rT) = S0 at K = 0
        m = make(name, alpha=alpha, hurst=hurst,
                 sigma=vol * 100.0 ** (1.0 - 0.5 * alpha)
                 / (1.0 if name == "cev" else math.sqrt(2.0)))
        env = MarketEnv(rate=rate, spot=100.0)
        strike = 100.0 * math.exp(log_k)
        price = call_price(m, env, t, strike)
        if price >= 1e-250:
            assert quadrature_price(m, env, t, strike) == pytest.approx(
                price, rel=1e-6, abs=0.0)
        assert quadrature_price(m, env, t, 0.0) == pytest.approx(
            100.0, rel=1e-8, abs=0.0)


class TestCallPrice:
    def test_nan_near_alpha_two_raises(self):
        # both chi-squared tails lean on a Bessel factor no method evaluates
        # there: a NaN price is an error naming the model and maturity
        m = make("cev", sigma=1.5, alpha=1.999999)
        env = MarketEnv(rate=0.05, spot=100.0)
        with pytest.raises(NumericalError, match=r"cev price .* maturity 20\.0"):
            call_price(m, env, 20.0, 100.0)
        with pytest.raises(NumericalError, match=r"maturity 20\.0"):
            call_prices(m, env, 20.0, np.array([80.0, 100.0, 120.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["cev", "msfcev"])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-155])
    def test_effective_variance_too_small_raises(self, env100, name, sigma):
        # Phi underflows to 0 (sigma 1e-200) or its inverse overflows
        # (sigma 1e-155): no warning, and an error naming Phi and T
        m = make(name, sigma=sigma, alpha=1.0, hurst=0.75)
        phi = effective_variance(m, env100, 1.0)
        assert phi < 1e-300
        match = re.escape(f"effective variance {phi!r} at maturity 1.0")
        with pytest.raises(DomainError, match=match):
            call_prices(m, env100, 1.0, [90.0, 100.0])
        with pytest.raises(DomainError, match=match):
            transition_density(m, env100, 1.0, np.array([90.0, 100.0]))

    def test_black_scholes_textbook(self):
        env = MarketEnv(rate=0.0, spot=100.0)
        m = make("bs")
        price = call_price(m, env, 1.0, 100.0)
        d = 0.15
        expected = 100.0 * (norm.cdf(d) - norm.cdf(-d))
        assert price == pytest.approx(expected, rel=1e-10)
        assert price == pytest.approx(11.9235, abs=5e-5)

    def test_bs_family_variances(self, env100):
        t, h = 1.3, 0.7
        for name, w in (("msfbs", 2.0 - 2.0 ** (2 * h - 1)), ("mfbs", 1.0)):
            m = make(name, hurst=h)
            v = m.sigma ** 2 * (t + w * t ** (2 * h))
            expected = black_scholes_call(100.0, 105.0, 0.05, t, v)
            assert call_price(m, env100, t, 105.0) == pytest.approx(expected,
                                                                    rel=1e-12)
            strikes = np.array([60.0, 95.0, 105.0, 180.0])
            pointwise = [black_scholes_call(100.0, k, 0.05, t, v)
                         for k in strikes]
            assert isinstance(pointwise[0], float)
            np.testing.assert_allclose(
                black_scholes_call(100.0, strikes, 0.05, t, v), pointwise,
                rtol=1e-14)

    def test_msfcev_gamma_zero_reduces_to_classical(self, env100):
        for sigma in (0.2, 0.3):
            for alpha in (0.5, 1.0, 1.5):
                for t in (0.25, 2.0):
                    msf = make("msfcev", sigma=sigma, alpha=alpha, hurst=0.7,
                               beta=1.0, gamma=0.0)
                    classical = make("cev", sigma=sigma, alpha=alpha,
                                     beta=1.0, gamma=0.0)
                    a = call_price(msf, env100, t, 100.0)
                    b = call_price(classical, env100, t, 100.0)
                    assert a == pytest.approx(b, rel=1e-10)

    def test_classical_limit_all_drivers(self, env100):
        beta, gamma = 1.3, 0.7
        sigma_eff = 0.3 * math.hypot(beta, gamma)
        for name in ("mfcev", "msfcev"):
            m = make(name, alpha=1.2, hurst=0.5, beta=beta, gamma=gamma)
            ref = make("cev", sigma=sigma_eff, alpha=1.2, beta=1.0, gamma=0.0)
            assert call_price(m, env100, 0.8, 103.0) == pytest.approx(
                call_price(ref, env100, 0.8, 103.0), rel=1e-8)
        for name in ("mfbs", "msfbs"):
            m = make(name, hurst=0.5, beta=beta, gamma=gamma)
            ref = make("bs", sigma=sigma_eff)
            assert call_price(m, env100, 0.8, 103.0) == pytest.approx(
                call_price(ref, env100, 0.8, 103.0), rel=1e-8)

    def test_monotonicity_and_bounds(self, env100):
        m = make("msfcev", alpha=1.2, hurst=0.75)
        strikes = np.linspace(60.0, 160.0, 21)
        prices = call_prices(m, env100, 1.0, strikes)
        assert np.all(np.diff(prices) < 0.0)
        disc = math.exp(-0.05)
        lower = np.maximum(100.0 - strikes * disc, 0.0)
        assert np.all(prices >= lower - 1e-12)
        assert np.all(prices <= 100.0 + 1e-12)
        # increasing in spot and sigma
        p_spots = [call_price(m, MarketEnv(rate=0.05, spot=s), 1.0, 100.0)
                   for s in (90.0, 100.0, 110.0)]
        assert p_spots[0] < p_spots[1] < p_spots[2]
        p_sig = [call_price(replace(m, sigma=s), env100, 1.0, 100.0)
                 for s in (0.2, 0.3, 0.45)]
        assert p_sig[0] < p_sig[1] < p_sig[2]

    def test_deep_tails(self, env100):
        m = make("msfcev", alpha=1.2, hurst=0.75)
        otm = call_price(m, env100, 0.5, 1000.0)
        assert 0.0 <= otm <= 1e-3 * 100.0
        itm = call_price(m, env100, 0.5, 1.0)
        assert itm == pytest.approx(100.0 - math.exp(-0.025), rel=1e-10)

    def test_deep_otm_matches_mpmath_reference(self):
        # perfbench/mpmath_table.csv row msfcev, sigma 30, alpha 0, H 0.75,
        # r 0.05, S0 100, T 0.25, K 400: an 80-digit Poisson mixture.  The
        # price is 1e-68, far under the Poisson mode's share of the mixture
        ref = 3.283964983411784e-68
        m = make("msfcev", sigma=30.0, alpha=0.0, hurst=0.75)
        price = call_price(m, MarketEnv(rate=0.05, spot=100.0), 0.25, 400.0)
        assert price == pytest.approx(ref, rel=1e-6, abs=0.0)

    # msfcev, H 0.75, r 0.05, S0 100: (sigma, alpha, T, K, price), the price
    # the chi-squared formula gives from these float inputs at 60 digits
    # (perfbench/mpmath_table.py's cev_call).  Their tails lie where the
    # kernels lose digits; before the quadrature took those tails they
    # priced 1.029e-157, 0, 1.553e-113, 1.477e-136 and 0
    DEEP_OTM = [
        (0.3, 1.2, 0.5, 250.0, 1.0608535428334913985e-160),
        (0.3, 1.2, 0.5, 300.0, 2.5452734832029945646e-250),
        (10.0, 0.0, 1.0, 400.0, 2.1770289539345088068e-116),
        (3.35, 0.5, 0.1, 200.0, 2.9409641425800888689e-136),
        (1.0, 1.0, 0.1, 250.0, 2.5637628490973377132e-248),
    ]

    @pytest.mark.parametrize("sigma,alpha,t,strike,ref", DEEP_OTM)
    def test_deep_otm_tails_match_mpmath(self, sigma, alpha, t, strike, ref):
        m = make("msfcev", sigma=sigma, alpha=alpha, hurst=0.75)
        price = call_price(m, MarketEnv(rate=0.05, spot=100.0), t, strike)
        assert price == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", ["msfcev", "bs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, env100, name, bad):
        m = make(name, alpha=1.2, hurst=0.75)
        with pytest.raises(DomainError, match="finite"):
            call_prices(m, env100, bad, [100.0])
        with pytest.raises(DomainError, match="finite"):
            call_prices(m, env100, 1.0, [100.0, bad])

    def test_fig1_ordering_short_maturity(self, env100):
        for h in (0.7, 0.9):
            for alpha in (0.5, 1.0, 1.5, 1.99):
                msf = call_price(make("msfcev", alpha=alpha, hurst=h), env100,
                                 0.25, 100.0)
                mf = call_price(make("mfcev", alpha=alpha, hurst=h), env100,
                                0.25, 100.0)
                assert msf < mf

    def test_alpha_near_two_approaches_bs(self, env100):
        alpha = 1.999
        scale = 100.0 ** (alpha / 2.0 - 1.0)
        for name, bs_name in (("msfcev", "msfbs"), ("mfcev", "mfbs")):
            cev = call_price(make(name, alpha=alpha, hurst=0.7), env100, 0.25,
                             100.0)
            bs = call_price(make(bs_name, sigma=0.3 * scale, hurst=0.7),
                            env100, 0.25, 100.0)
            assert cev == pytest.approx(bs, rel=1e-3)


class TestPriceCurve:
    def test_singleton_grid(self, env100):
        template = make("msfcev", alpha=1.0, hurst=0.7)
        rows = price_curve(template, env100, 0.25, 100.0, [1.0], [0.7])
        assert len(rows) == 2
        by_driver = {r[2]: r[3] for r in rows}
        assert by_driver["msfcev"] == pytest.approx(
            call_price(make("msfcev", alpha=1.0, hurst=0.7), env100, 0.25,
                       100.0), rel=1e-14)
        assert by_driver["mfcev"] == pytest.approx(
            call_price(make("mfcev", alpha=1.0, hurst=0.7), env100, 0.25,
                       100.0), rel=1e-14)

    def test_row_ordering(self, env100):
        template = make("msfcev", alpha=1.0, hurst=0.7)
        rows = price_curve(template, env100, 0.25, 100.0, [0.5, 1.0],
                           [0.7, 0.9])
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys)

    def test_csv_format(self, env100):
        template = make("msfcev", alpha=1.0, hurst=0.7)
        rows = price_curve(template, env100, 0.25, 100.0, [1.0], [0.7])
        buf = io.StringIO()
        write_price_curve_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,hurst,driver,price"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[2] in ("mfcev", "msfcev")
        float(fields[3])

    def test_empty_grid_rejected(self, env100):
        template = make("msfcev", alpha=1.0, hurst=0.7)
        with pytest.raises(DomainError):
            price_curve(template, env100, 0.25, 100.0, [], [0.7])


class TestDriverVariance:
    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0,
                                   np.array([1.0, math.inf]),
                                   np.array([math.nan, 1.0])])
    def test_bad_time_rejected(self, t):
        p = MixedDriverParams(hurst=0.7)
        with pytest.raises(DomainError, match="finite and >= 0"):
            driver_variance(Driver.MIXED_SUB_FRACTIONAL, p, t)

    def test_list_of_times_broadcasts(self):
        p = MixedDriverParams(hurst=0.7, beta=1.0, gamma=1.0)
        ts = [0.5, 1.0, 2.0]
        got = driver_variance(Driver.MIXED_SUB_FRACTIONAL, p, ts)
        assert got.tolist() == driver_variance(Driver.MIXED_SUB_FRACTIONAL, p,
                                               np.array(ts)).tolist()
        with pytest.raises(DomainError, match="finite and >= 0"):
            driver_variance(Driver.MIXED_SUB_FRACTIONAL, p, [1.0, math.nan])

    def test_values(self):
        p = MixedDriverParams(hurst=0.7, beta=1.0, gamma=1.0)
        t = 2.0
        msf = driver_variance(Driver.MIXED_SUB_FRACTIONAL, p, t)
        mf = driver_variance(Driver.MIXED_FRACTIONAL, p, t)
        assert msf == pytest.approx(t + (2 - 2 ** 0.4) * t ** 1.4, rel=1e-14)
        assert mf == pytest.approx(t + t ** 1.4, rel=1e-14)
        assert msf < mf
