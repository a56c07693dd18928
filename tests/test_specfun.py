import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import chndtr, gammaln, hyp1f1, ive
from scipy.special._ufuncs import _ncx2_sf
from scipy.stats import ncx2

from msfcev import specfun
from msfcev.errors import DomainError
from msfcev.pricing import MarketEnv, ModelSpec, call_prices, cev_intermediates
from msfcev.specfun import (_KERNEL_FLOOR, _SERIES_NC_MAX, _tail_quadrature,
                            bessel_i_scaled, chi2_noncentral_sf_cdf, log_gamma)


def brute_bessel_series(order, z, terms=3000):
    """Independent oracle: plain ascending series summed to machine tolerance."""
    total = mpmath.mpf(0)
    h = mpmath.mpf(z) / 2
    for k in range(terms):
        total += h ** (2 * k + order) / (mpmath.factorial(k)
                                         * mpmath.gamma(k + order + 1))
    return float(total)


class TestLogGamma:
    def test_examples(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                               rel=1e-13)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 1e3, 60).tolist())
    def test_accuracy_grid(self, x):
        ref = float(gammaln(x))
        if abs(ref) > 0.1:
            assert abs(log_gamma(x) - ref) <= 1e-13 * abs(ref)
        else:
            assert abs(log_gamma(x) - ref) <= 1e-13

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestBesselI:
    def test_half_integer_closed_forms(self):
        # exp(-z) sinh z = (1 - e^{-2z}) / 2 and exp(-z) cosh z = (1 + e^{-2z}) / 2
        for z in (0.5, 1.0, 3.0, 10.0, 25.0):
            root = math.sqrt(2.0 / (math.pi * z))
            sinh_s = 0.5 * -math.expm1(-2.0 * z)
            cosh_s = 0.5 * (1.0 + math.exp(-2.0 * z))
            assert bessel_i_scaled(0.5, z) == pytest.approx(root * sinh_s,
                                                            rel=1e-10)
            assert bessel_i_scaled(1.5, z) == pytest.approx(
                root * (cosh_s - sinh_s / z), rel=1e-10)

    def test_spec_examples(self):
        assert bessel_i_scaled(0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0) * math.exp(-1.0),
            rel=1e-12)
        assert bessel_i_scaled(1.0, 0.0) == 0.0
        assert bessel_i_scaled(0.0, 0.0) == 1.0
        assert bessel_i_scaled(2.0, 3.0) == pytest.approx(
            brute_bessel_series(2.0, 3.0) * math.exp(-3.0), rel=1e-12)
        # scalars take the array path and come back as Python floats
        assert type(bessel_i_scaled(2.0, 3.0)) is float

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.0, 7.5, 50.0, 200.0])
    @pytest.mark.parametrize("z", [1e-6, 0.1, 1.0, 10.0, 29.9, 30.1, 120.0, 700.0])
    def test_scaled_accuracy_domain(self, order, z):
        ref = float(ive(order, z))
        if ref > 0.0:
            assert bessel_i_scaled(order, z) == pytest.approx(ref, rel=1e-10,
                                                              abs=0.0)

    def test_large_order_beyond_guarantee(self):
        # density evaluations can push the order to ~1000
        for order, z in ((500.0, 100.0), (1000.0, 700.0)):
            assert bessel_i_scaled(order, z) == pytest.approx(
                float(ive(order, z)), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("z", [30.0, 31.0, 60.0, 200.0, 700.0])
    def test_cross_branch_agreement(self, order, z):
        # large arguments, where Bessel kernels switch to their asymptotic
        # branch, against an independent 30-digit evaluation
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(order, z) * mpmath.exp(-z))
        assert bessel_i_scaled(order, z) == pytest.approx(ref, rel=1e-10)

    def test_array_arguments_broadcast(self):
        orders = np.array([[0.0], [2.5], [40.0]])
        zs = np.array([0.0, 1e-3, 5.0, 90.0, 700.0])
        got = bessel_i_scaled(orders, zs)
        assert got.shape == (3, 5)
        for i, order in enumerate(orders[:, 0]):
            for j, z in enumerate(zs):
                assert got[i, j] == bessel_i_scaled(float(order), float(z))
        with pytest.raises(DomainError):
            bessel_i_scaled(1.0, np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            bessel_i_scaled(np.array([1.0, math.nan]), 1.0)

    @pytest.mark.parametrize("order", [0.0, 0.5, 2.5, 945.0, 1e4])
    @pytest.mark.parametrize("z", [1.1e9, 2.37e9, 1e12])
    def test_beyond_amos_argument_limit(self, order, z):
        # special.ive returns NaN above z = 2^30; fits with alpha near 2 and
        # a small sigma put the transition density's argument there
        assert math.isnan(float(ive(order, z)))
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(order, z) * mpmath.exp(-z))
        assert bessel_i_scaled(order, z) == pytest.approx(ref, rel=1e-14, abs=0.0)
        mixed = bessel_i_scaled(np.array([order, order]), np.array([z, 50.0]))
        assert mixed[0] == bessel_i_scaled(order, z)
        assert mixed[1] == float(ive(order, 50.0))

    def test_order_too_large_stays_nan(self):
        # Amos refuses and the large-argument terms never fall
        assert math.isnan(bessel_i_scaled(1e6, 2e9))
        assert math.isnan(bessel_i_scaled(2e9, 1e3))

    def test_scaled_matches_log_path(self):
        # past z ~ 713 the unscaled I_nu overflows; mpmath's log I_nu - z
        # at 30 digits is the independent route to the scaled value
        for order, z in ((0.0, 5.0), (1.0, 50.0), (3.3, 400.0), (40.0, 90.0),
                         (2.5, 900.0)):
            with mpmath.workdps(30):
                via_log = float(mpmath.exp(mpmath.log(mpmath.besseli(order, z))
                                           - z))
            assert bessel_i_scaled(order, z) == pytest.approx(via_log, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i_scaled(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(1.0, -1.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(1.0, math.inf)


def whittaker_via_hyp1f1(kappa, mu, z):
    """M_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} M(mu-kappa+1/2, 1+2mu, z)."""
    return (math.exp(-0.5 * z + (mu + 0.5) * math.log(z))
            * hyp1f1(mu - kappa + 0.5, 1.0 + 2.0 * mu, z))


class TestKummerM:
    """Kummer M as the effective variance evaluates it, ``scipy.special.hyp1f1``."""

    def test_examples(self):
        assert hyp1f1(1.0, 3.0, 0.0) == 1.0
        closed = 2.0 * (math.e - 2.0)
        assert hyp1f1(1.0, 3.0, 1.0) == pytest.approx(closed, rel=1e-12)
        assert hyp1f1(2.0, 2.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (1.0, 2.4), (0.7, 3.1),
                                     (2.5, 5.0)])
    @pytest.mark.parametrize("z", [1e-8, 0.02, 1.0, 30.0, 250.0, 700.0])
    def test_against_mpmath(self, a, b, z):
        ref = float(mpmath.hyp1f1(a, b, z))
        assert hyp1f1(a, b, z) == pytest.approx(ref, rel=1e-10)

    def test_closed_form_m_1_3(self):
        for z in (0.5, 2.0, 20.0):
            closed = 2.0 * (math.exp(z) - 1.0 - z) / z ** 2
            assert hyp1f1(1.0, 3.0, z) == pytest.approx(closed, rel=1e-12)


class TestWhittakerM:
    """The Whittaker form behind Phi, built on hyp1f1, against mpmath.whitm."""

    def test_reduction_to_kummer_closed_form(self):
        expected = math.exp(-0.5) * 2.0 * (math.e - 2.0)
        assert float(mpmath.whitm(0.5, 1.0, 1.0)) == pytest.approx(expected,
                                                                   rel=1e-12)
        assert whittaker_via_hyp1f1(0.5, 1.0, 1.0) == pytest.approx(expected,
                                                                    rel=1e-12)

    def test_against_mpmath(self):
        for kappa, mu, z in ((0.7, 1.2, 0.5), (0.5, 1.0, 3.0), (0.9, 1.4, 0.01)):
            ref = float(mpmath.whitm(kappa, mu, z))
            assert whittaker_via_hyp1f1(kappa, mu, z) == pytest.approx(ref,
                                                                       rel=1e-10)

    def test_consistency_with_kummer_entry_point(self):
        # M_{k,m}(z) * e^{z/2} * z^{-m-1/2} must reproduce hyp1f1
        for kappa, mu, z in ((0.5, 1.0, 1.0), (0.7, 1.2, 0.5), (0.6, 1.1, 4.0)):
            with mpmath.workdps(30):
                lhs = float(mpmath.whitm(kappa, mu, z) * mpmath.exp(0.5 * z)
                            * mpmath.power(z, -(mu + 0.5)))
            rhs = hyp1f1(mu - kappa + 0.5, 1.0 + 2.0 * mu, z)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_leading_order_at_zero(self):
        z = 1e-10
        ratio = whittaker_via_hyp1f1(0.5, 1.0, z) / z ** 1.5
        assert ratio == pytest.approx(1.0, rel=1e-6)
        assert whittaker_via_hyp1f1(0.5, 1.0, z) < 1e-14


def ncx2_quadrature_oracle(x, df, nc):
    """Adaptive quadrature of the non-central density over [x, inf)."""
    val, _ = integrate.quad(lambda t: ncx2.pdf(t, df, nc), x, np.inf,
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


class TestChi2Noncentral:
    def test_examples(self):
        assert chi2_noncentral_sf_cdf(0.0, 2.0, 5.0, upper=True) == 1.0
        assert chi2_noncentral_sf_cdf(2.0, 2.0, 0.0, upper=True) == pytest.approx(
            math.exp(-1.0), rel=1e-13)
        oracle = ncx2_quadrature_oracle(4.0, 3.0, 2.0)
        assert chi2_noncentral_sf_cdf(4.0, 3.0, 2.0, upper=True) == pytest.approx(
            oracle, abs=1e-12)

    @pytest.mark.parametrize("x,df,nc", [
        (0.5, 2.0, 5.0), (4.0, 3.0, 2.0), (10.0, 1.0, 1.0),
        (100.0, 5.0, 50.0), (1.0, 1.0, 100.0), (40.0, 0.3, 8.0),
        (1500.0, 7.0, 1400.0), (250.0, 2002.0, 10.0), (5000.0, 3.0, 5000.0),
    ])
    def test_absolute_accuracy_vs_scipy(self, x, df, nc):
        sf = chi2_noncentral_sf_cdf(x, df, nc, upper=True)
        cdf = chi2_noncentral_sf_cdf(x, df, nc, upper=False)
        assert abs(sf - ncx2.sf(x, df, nc)) <= 1e-12
        assert abs(cdf - ncx2.cdf(x, df, nc)) <= 1e-12

    def test_deep_tails_keep_relative_accuracy(self):
        # the direct cdf mixture must not degrade to 1 - (1 - tiny)
        val = chi2_noncentral_sf_cdf(1.0, 1.0, 100.0, upper=False)
        assert val == pytest.approx(float(ncx2.cdf(1.0, 1.0, 100.0)), rel=1e-9,
                                     abs=0.0)
        val = chi2_noncentral_sf_cdf(300.0, 2.0, 60.0, upper=True)
        assert val == pytest.approx(float(ncx2.sf(300.0, 2.0, 60.0)), rel=1e-9,
                                     abs=0.0)

    def test_monotonicity_grids(self):
        xs = np.linspace(0.0, 60.0, 25)
        for df in (1.0, 2.0, 7.5):
            for nc in (0.0, 2.0, 20.0):
                vals = [chi2_noncentral_sf_cdf(float(x), df, nc, upper=True)
                        for x in xs]
                assert vals[0] == 1.0
                assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
        ncs = np.linspace(0.0, 40.0, 17)
        for x in (5.0, 15.0):
            vals = [chi2_noncentral_sf_cdf(x, 3.0, float(nc), upper=True)
                    for nc in ncs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_limit_at_large_x(self):
        assert chi2_noncentral_sf_cdf(1e4, 3.0, 5.0, upper=True) < 1e-300

    def test_sf_cdf_complement(self):
        for x, df, nc in ((4.0, 3.0, 2.0), (30.0, 4.0, 20.0), (2.0, 1.5, 9.0)):
            total = (chi2_noncentral_sf_cdf(x, df, nc, upper=True)
                     + chi2_noncentral_sf_cdf(x, df, nc, upper=False))
            assert total == pytest.approx(1.0, abs=5e-13)

    def test_batch_matches_scalar(self):
        xs = np.array([1.0, 5.0, 25.0, 80.0])
        sf = chi2_noncentral_sf_cdf(xs, 3.0, 12.0, upper=True)
        for i, x in enumerate(xs):
            assert sf[i] == pytest.approx(
                chi2_noncentral_sf_cdf(float(x), 3.0, 12.0, upper=True), abs=1e-13)
        ncs = np.array([2.0, 12.0, 90.0, 400.0])
        sf = chi2_noncentral_sf_cdf(30.0, 3.0, ncs, upper=True)
        cdf = chi2_noncentral_sf_cdf(30.0, 3.0, ncs, upper=False)
        for i, nc in enumerate(ncs):
            one_sf = chi2_noncentral_sf_cdf(30.0, 3.0, float(nc), upper=True)
            one_cdf = chi2_noncentral_sf_cdf(30.0, 3.0, float(nc), upper=False)
            assert sf[i] == pytest.approx(one_sf, abs=5e-13)
            assert cdf[i] == pytest.approx(one_cdf, abs=5e-13)

    def test_array_df_broadcasts_like_pointwise_calls(self):
        # one call over every (x, df, nc) triple, as call_prices makes it
        xs = np.array([0.0, 2.0, 30.0, 400.0])
        dfs = np.array([1.0, 3.0, 2.0 / 0.8, 2002.0])
        ncs = np.array([5.0, 0.0, 90.0, 350.0])
        for upper in (True, False):
            tail = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=upper)
            for i in range(xs.size):
                args = (float(xs[i]), float(dfs[i]), float(ncs[i]))
                assert tail[i] == chi2_noncentral_sf_cdf(*args, upper=upper)
            tail = chi2_noncentral_sf_cdf(10.0, dfs[:, None], ncs[None, :],
                                          upper=upper)
            assert tail.shape == (4, 4)
            for i, df in enumerate(dfs):
                for j, nc in enumerate(ncs):
                    assert tail[i, j] == chi2_noncentral_sf_cdf(
                        10.0, float(df), float(nc), upper=upper)
        with pytest.raises(DomainError):
            chi2_noncentral_sf_cdf(xs, np.array([1.0, 1.0, 0.0, 1.0]), ncs,
                                   upper=True)

    def test_mixed_tails_match_single_tail_calls_bit_for_bit(self):
        # each point takes the tail its mask names, and the same bits as a
        # call that asks every point for that tail; the x = 0 and nc = 0
        # edges sit on both sides of the mask
        xs = np.array([0.0, 0.0, 2.0, 2.0, 30.0, 400.0, 1e3, 5.0, 0.3])
        dfs = np.array([3.0, 1.0, 3.0, 2.5, 2.0, 2002.0, 4.0, 1.5, 0.5])
        ncs = np.array([2.0, 0.0, 0.0, 9.0, 90.0, 350.0, 1e3, 0.0, 7.0])
        upper = np.array([True, False, True, False, True, False, False, True,
                          False])
        sf = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=True)
        cdf = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=False)
        mixed = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=upper)
        np.testing.assert_array_equal(mixed, np.where(upper, sf, cdf))
        # the mask broadcasts like the other arguments
        grid = chi2_noncentral_sf_cdf(xs[:, None], 3.0, 12.0,
                                      upper=np.array([True, False]))
        assert grid.shape == (xs.size, 2)
        np.testing.assert_array_equal(
            grid[:, 0], chi2_noncentral_sf_cdf(xs, 3.0, 12.0, upper=True))
        np.testing.assert_array_equal(
            grid[:, 1], chi2_noncentral_sf_cdf(xs, 3.0, 12.0, upper=False))

    # (x, df, nc, upper, tail): 30-digit mpmath quadrature of the density in
    # x, a breakpoint at every standard deviation.  Above nc = 1e9 Boost's
    # series stops at its iteration cap and both kernels lose digits (the
    # third row's sf is 3.4e-4 off, the sixth's 7.4e-8)
    LARGE_NC = [
        (29997921542.030865, 3.0, 3e10, False, 9.8597392480128234e-10),
        (30000000003.0, 3.0, 3e10, True, 0.49999884835283514),
        (30002771284.29218, 3.0, 3e10, True, 6.2301551630371891e-16),
        (1499924542.3072302, 2002.0, 1.5e9, False, 0.15865525389139947),
        (1500156921.3855398, 2002.0, 1.5e9, True, 0.022752222963120529),
        (1500621679.5421588, 2002.0, 1.5e9, True, 6.2621773711408163e-16),
        (29999307180.676968, 1.0, 3e10, False, 0.022749664370591165),
        (30001732051.807583, 1.0, 3e10, True, 2.8675458963687872e-7),
    ]

    def test_large_noncentrality_matches_mpmath(self):
        xs, dfs, ncs, uppers, refs = (np.array(v) for v in zip(*self.LARGE_NC))
        for x, df, nc, upper, ref in self.LARGE_NC:
            got = chi2_noncentral_sf_cdf(x, df, nc, upper=upper)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
            other = chi2_noncentral_sf_cdf(x, df, nc, upper=not upper)
            assert got + other == pytest.approx(1.0, abs=1e-15)
        batch = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=uppers)
        np.testing.assert_allclose(batch, refs, rtol=1e-13)
        # the edge at x = 0 holds above the series' range too, also where
        # nc / sqrt(nc) rounds above sqrt(nc) and the empty span's node
        # lands an ulp below u = 0 (at nc 3.8e9 that raised DomainError)
        for nc in (3e5, 3806483068.094369, 3e10):
            assert chi2_noncentral_sf_cdf(0.0, 3.0, nc, upper=True) == 1.0
            assert chi2_noncentral_sf_cdf(0.0, 3.0, nc, upper=False) == 0.0

    # (x, df, nc, upper, tail) 3 and 8 sd either side of the mean, at and
    # just above the hand-off to the quadrature at nc = 1e5: 40-digit mpmath
    # quadrature of the density in u = sqrt(x), a breakpoint at every unit.
    # Centred on sqrt(nc) instead of the mean's root sqrt(nc + df), the
    # quadrature integrated the wrong tail of the fourth df-2002 row (at x
    # 3 sd below the mean) and was 2.2e-6 off
    HAND_OFF = [
        (95139.80126822345, 202.0, 1e5, False, 2.69989562442136120752417499678e-16),
        (98303.6754755838, 202.0, 1e5, False, 0.00129438679326861899587797211097),
        (102100.3245244162, 202.0, 1e5, True, 0.00140640488822856447176379290909),
        (105264.19873177655, 202.0, 1e5, True, 1.36211371870435757393216689571e-15),
        (291436.9640046375, 202.0, 3e5, False, 3.86634630424186175354935305553e-16),
        (296915.11150173907, 202.0, 3e5, False, 0.00131770810462363604370628067386),
        (303488.88849826093, 202.0, 3e5, True, 0.00138242017514974896083557176496),
        (308967.0359953625, 202.0, 3e5, True, 9.8407219969228669227520991036e-16),
        (96917.09528112866, 2002.0, 1e5, False, 2.71730431533206144297754818036e-16),
        (100095.16073042325, 2002.0, 1e5, False, 0.00129479558053625150998433568361),
        (103908.83926957675, 2002.0, 1e5, True, 0.00140598254393568627106103630098),
        (107086.90471887134, 2002.0, 1e5, True, 1.35448853992902905674312331524e-15),
        (293223.83071477886, 2002.0, 3e5, False, 3.87102844043989427833007495747e-16),
        (298710.18651804206, 2002.0, 3e5, False, 0.00131778794295752191279014198244),
        (305293.81348195794, 2002.0, 3e5, True, 0.00138233881544312046246725245169),
        (310780.16928522114, 2002.0, 3e5, True, 9.82971609505535853392331054599e-16),
    ]

    def test_hand_off_matches_mpmath(self):
        xs, dfs, ncs, uppers, refs = (np.array(v) for v in zip(*self.HAND_OFF))
        np.testing.assert_allclose(_tail_quadrature(xs, dfs, ncs, uppers), refs,
                                   rtol=1e-13)
        np.testing.assert_allclose(
            _tail_quadrature(xs, dfs, ncs, ~uppers), 1.0 - refs, rtol=1e-15)
        # above the switch the public route is the quadrature; at nc = 1e5
        # it is still the series, whose 8-sd tails are 5e-12 off there
        public = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=uppers)
        above = ncs > _SERIES_NC_MAX
        assert above.any() and not above.all()
        np.testing.assert_allclose(public[above], refs[above], rtol=1e-13)
        np.testing.assert_allclose(public[~above], refs[~above], rtol=1e-11)

    # (x, df, nc, upper, tail) below the kernel floor: 40-digit mpmath
    # Poisson mixtures.  The first three are the tails of msfcev sigma 0.3,
    # alpha 1.2, T 0.5 at K 250 and 300, the fourth the cdf at msfcev
    # alpha 0, sigma 10, T 1, K 400.  The kernels put 0, or a value 0.03-8%
    # off, on all but the first, the second from last and the last; the
    # last, at nc < 1, stays Boost's
    DEEP = [
        (8061.371350918375, 4.5, 3951.325528046591, True,
         1.02941313658749612913469863686e-159),
        (3951.325528046591, 2.5, 8061.371350918375, False,
         4.217540580126038543180613375e-160),
        (9327.256594244434, 4.5, 3951.325528046591, True,
         3.32299285173182772739173234195e-249),
        (66.51198468648684, 1.0, 962.9205198746885, False,
         4.07691433346660767766915342771e-116),
        (30.0, 1.25, 900.0, False, 3.4117154518937586658743135613e-133),
        (300.0, 3.6667, 2000.0, False, 3.77009587538756525956977927535e-166),
        (82.419, 202.0, 756.56, False, 2.41398804367110083782789083063e-133),
        (11.802, 102.0, 421.53, False, 8.00287639790543099939803204232e-113),
        (1814.19, 1.6667, 80.44, True, 6.19195793601445051978724695824e-248),
        (29696.6, 22.0, 20848.9, True, 3.1651408538714453112961559736e-171),
        (1500.0, 2.5, 10.0, True, 1.45806632475495364349770594679e-276),
        (600.0, 1.25, 0.5, True, 3.49162124749662845559457240723e-125),
    ]

    def test_deep_tails_match_mpmath(self):
        xs, dfs, ncs, uppers, refs = (np.array(v) for v in zip(*self.DEEP))
        quad = _tail_quadrature(xs, dfs, ncs, uppers)
        np.testing.assert_allclose(quad[:-1], refs[:-1], rtol=1e-14)
        public = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=uppers)
        np.testing.assert_allclose(public, refs, rtol=1e-14)
        for x, df, nc, upper, ref in self.DEEP:
            assert chi2_noncentral_sf_cdf(x, df, nc, upper=upper) == pytest.approx(
                ref, rel=1e-14, abs=0.0)
        # below nc = 1 the survival function is Boost's, bit for bit
        assert public[-1] == _ncx2_sf(*self.DEEP[-1][:3])

    def test_tails_above_the_floor_stay_the_kernels(self):
        # the route to the quadrature changes no tail a kernel puts at or
        # above 1e-60; a tail under it goes there, and a cdf at x = 0 is 0
        xs = np.array([50.0, 260.0, 600.0, 900.0])
        kernel = _ncx2_sf(xs, 3.0, 20.0)
        assert (kernel[:2] >= _KERNEL_FLOOR).all()
        assert (kernel[2:] < _KERNEL_FLOOR).all()
        sf = chi2_noncentral_sf_cdf(xs, 3.0, 20.0, upper=True)
        np.testing.assert_array_equal(sf[:2], kernel[:2])
        np.testing.assert_array_equal(
            sf[2:], _tail_quadrature(xs[2:], np.full(2, 3.0), np.full(2, 20.0),
                                     np.full(2, True)))
        xs = np.array([0.0, 0.05, 0.5])
        cdf = chi2_noncentral_sf_cdf(xs, 3.0, 20.0, upper=False)
        np.testing.assert_array_equal(cdf, chndtr(xs, 3.0, 20.0))
        assert cdf[0] == 0.0

    def test_quadrature_meets_kernels_below_large_noncentrality(self):
        # where the series kernels still converge, the density quadrature
        # that takes over above nc = 1e5 agrees with them within a standard
        # deviation or three of the mean, so the hand-off does not jump
        for df in (3.0, 2002.0):
            for nc in (1e5, 3e5, 1e6):
                sd = math.sqrt(2.0 * (df + 2.0 * nc))
                xs = df + nc + sd * np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
                ones = np.ones(5)
                for upper, kernel in ((True, _ncx2_sf), (False, chndtr)):
                    quad = _tail_quadrature(xs, df * ones, nc * ones,
                                            np.full(5, upper))
                    np.testing.assert_allclose(quad, kernel(xs, df, nc),
                                               rtol=1e-11)

    @staticmethod
    def _count_quadratures(monkeypatch):
        calls = []
        real = specfun._tail_quadrature

        def counted(*args):
            calls.append(args[0].size)
            return real(*args)

        monkeypatch.setattr(specfun, "_tail_quadrature", counted)
        return calls

    def test_one_quadrature_call_per_batch(self, monkeypatch):
        # points above nc = 1e5 and kernel tails below 1e-60 go to the
        # quadrature together, in one call, with the bits each point gets
        # on its own; the kernel points in the batch (two ordinary tails,
        # and DEEP's last row, below nc = 1) stay out of it
        rows = self.LARGE_NC + self.DEEP + [
            (4.0, 3.0, 2.0, True, None), (30.0, 4.0, 20.0, False, None)]
        xs, dfs, ncs, uppers, _ = (np.array(v) for v in zip(*rows))
        alone = [chi2_noncentral_sf_cdf(*row[:3], upper=row[3]) for row in rows]
        calls = self._count_quadratures(monkeypatch)
        batch = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=uppers)
        assert calls == [len(rows) - 3]
        np.testing.assert_array_equal(batch, alone)

    def test_common_slice_makes_no_quadrature(self, monkeypatch):
        # a slice of the usual kind, strikes 10 to 600 on a spot of 100 at
        # moderate alpha, has no nc above 1e5 and no tail below 1e-60
        calls = self._count_quadratures(monkeypatch)
        model = ModelSpec.make("msfcev", sigma=3.0, alpha=1.2, hurst=0.75)
        prices = call_prices(model, MarketEnv(rate=0.03, spot=100.0), 0.5,
                             np.geomspace(10.0, 600.0, 40))
        assert np.isfinite(prices).all()
        assert calls == []

    def test_scalar_api_returns_floats(self):
        sf = chi2_noncentral_sf_cdf(4.0, 3.0, 2.0, upper=True)
        cdf = chi2_noncentral_sf_cdf(4.0, 3.0, 2.0, upper=False)
        assert isinstance(sf, float) and isinstance(cdf, float)

    def test_ufunc_route_matches_stats_bit_for_bit(self, mpmath_table_rows):
        # the survival function calls Boost's ufunc under scipy.stats.ncx2.sf
        # directly; pin it to ncx2.sf on the arguments that pricing builds
        # for every row of the 80-digit table that the series takes, and on
        # the x = 0 and nc = 0 edges where the bare ufunc differs from
        # ncx2.sf.  The table's arguments above the switch go through the
        # density quadrature, whose prices TestTailChoice holds to the table
        xs, dfs, ncs = [], [], []
        for row in mpmath_table_rows:
            m = ModelSpec.make(row["model"], sigma=float(row["sigma"]),
                               alpha=float(row["alpha"]),
                               hurst=float(row["hurst"]))
            env = MarketEnv(rate=float(row["rate"]), spot=float(row["spot"]))
            ints = cev_intermediates(m, env, float(row["maturity"]),
                                     float(row["strike"]))
            df0 = 2.0 / (2.0 - m.alpha)
            xs += [2.0 * ints.z_s, 2.0 * ints.y_s]
            dfs += [2.0 + df0, df0]
            ncs += [2.0 * ints.y_s, 2.0 * ints.z_s]
        edges = [(0.0, 3.0, 2.0), (0.0, 2002.0, 1e4), (0.0, 0.5, 0.0),
                 (2.0, 3.0, 0.0), (0.3, 2.5, 0.0), (5000.0, 2000.0, 0.0)]
        for x, df, nc in edges:
            xs.append(x)
            dfs.append(df)
            ncs.append(nc)
            assert chi2_noncentral_sf_cdf(x, df, nc, upper=True) == float(
                ncx2.sf(x, df, nc))
        xs, dfs, ncs = np.array(xs), np.array(dfs), np.array(ncs)
        # tails below the kernel floor go to the quadrature as well
        series = (ncs <= _SERIES_NC_MAX) & (ncx2.sf(xs, dfs, ncs) >= _KERNEL_FLOOR)
        assert not series.all()
        xs, dfs, ncs = xs[series], dfs[series], ncs[series]
        sf = chi2_noncentral_sf_cdf(xs, dfs, ncs, upper=True)
        np.testing.assert_array_equal(sf, ncx2.sf(xs, dfs, ncs))

    def test_errors(self):
        with pytest.raises(DomainError):
            chi2_noncentral_sf_cdf(-1.0, 3.0, 2.0, upper=True)
        with pytest.raises(DomainError):
            chi2_noncentral_sf_cdf(1.0, 0.0, 2.0, upper=False)
        with pytest.raises(DomainError):
            chi2_noncentral_sf_cdf(1.0, 3.0, -2.0, upper=True)
