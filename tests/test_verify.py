import io
import math

import numpy as np
import pytest
from scipy import integrate

from msfcev.errors import DomainError, NumericalError
from msfcev.pricing import (Driver, MarketEnv, ModelSpec, call_price,
                            cev_intermediates, diffusion_kernel,
                            driver_variance, black_scholes_call,
                            transition_density)
from msfcev import pricing, verify
from msfcev.pricing import write_density_csv
from msfcev.verify import (Check, FpeGrid, McConfig,
                           effective_variance_quadrature,
                           mc_price_cev_classical, mc_price_msfbs,
                           quadrature_price, run_checks, solve_fpe)


def fpe_l1(model, env, maturity, grid):
    sol = solve_fpe(model, env, maturity, grid)
    keep = sol.s > 1e-9
    closed = transition_density(model, env, maturity, sol.s[keep])
    return float(np.trapezoid(np.abs(sol.density_s[keep] - closed),
                              sol.s[keep])), sol


class TestFpe:
    def test_classical_alpha_one(self, env100):
        m = ModelSpec.make("cev", sigma=0.3, alpha=1.0)
        l1, sol = fpe_l1(m, env100, 1.0,
                         FpeGrid(x_min=0.0, x_max=450.0, n_space=2400,
                                 n_time=600))
        assert l1 <= 1e-2
        assert sol.conservation_drift <= 1e-3
        assert sol.mass + sol.absorbed == pytest.approx(1.0, abs=1e-3)

    def test_msfcev_short_maturity(self, env100):
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.5, hurst=0.7)
        l1, sol = fpe_l1(m, env100, 0.25,
                         FpeGrid(x_min=0.0, x_max=14.0, n_space=1400,
                                 n_time=500))
        assert l1 <= 1e-2
        assert sol.conservation_drift <= 1e-3

    def test_first_order_refinement(self, env100):
        m = ModelSpec.make("cev", sigma=0.3, alpha=1.0)
        coarse, _ = fpe_l1(m, env100, 1.0,
                           FpeGrid(x_min=0.0, x_max=450.0, n_space=1200,
                                   n_time=600))
        fine, _ = fpe_l1(m, env100, 1.0,
                         FpeGrid(x_min=0.0, x_max=450.0, n_space=2400,
                                 n_time=600))
        assert coarse / fine >= 1.8

    def test_grid_must_cover_initial_condition(self, env100):
        m = ModelSpec.make("cev", sigma=0.3, alpha=1.0)
        with pytest.raises(DomainError):
            solve_fpe(m, env100, 1.0,
                      FpeGrid(x_min=0.0, x_max=50.0, n_space=200, n_time=100))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            FpeGrid(x_min=-1.0, x_max=10.0, n_space=100, n_time=100)
        with pytest.raises(DomainError):
            FpeGrid(x_min=0.0, x_max=10.0, n_space=10, n_time=100)

    def test_bs_family_rejected(self, env100):
        with pytest.raises(DomainError):
            solve_fpe(ModelSpec.make("bs", sigma=0.3), env100, 1.0,
                      FpeGrid(x_min=0.0, x_max=400.0, n_space=100, n_time=100))

    # the acceptance-5 grids and a point where 13% of the mass is absorbed,
    # at r 0.05; values recorded with the earlier solver, which rebuilt both
    # tridiagonals every step and solved them by banded LU.  Last, the
    # benchmark's mfcev point at r 0.03 on run_checks' grid, a D(t) that
    # varies over two years; values recorded with the solver that formed
    # every step's explicit tridiagonal product
    @pytest.mark.parametrize("model,maturity,grid,mass,absorbed,l1,peak,nodes,rate", [
        (ModelSpec.make("cev", sigma=0.3, alpha=1.0), 1.0,
         FpeGrid(x_min=0.0, x_max=450.0, n_space=2400, n_time=600),
         0.9999999999999966, 0.0, 0.0075172871396396584, 0.12714051187753725,
         {450: 4.164963469239166e-12, 500: 0.00012979543642244526,
          533: 0.032495945169124296, 600: 0.008453087879867812,
          700: 9.948364335843477e-15}, 0.05),
        (ModelSpec.make("msfcev", sigma=0.3, alpha=1.5, hurst=0.7), 0.25,
         FpeGrid(x_min=0.0, x_max=14.0, n_space=1400, n_time=500),
         0.9999999999999993, 3.7020332327150467e-37, 0.0023683776383698384,
         1.416616018209763,
         {900: 0.0008893205257198103, 960: 0.3772931031019245,
          1000: 1.3919092790241916, 1040: 0.6710861914490007,
          1100: 0.006403057547329988}, 0.05),
        (ModelSpec.make("cev", sigma=10.0, alpha=1.0), 1.0,
         FpeGrid(x_min=0.0, x_max=900.0, n_space=2400, n_time=600),
         0.870287220791254, 0.12971277920841331, 4.738068453025459e-05,
         0.005150967870191798,
         {1: 0.0051471020358534745, 100: 0.004860119061879895,
          267: 0.0035673616569150404, 500: 0.0018316544353766588,
          1000: 0.0002783274156752839}, 0.05),
        (ModelSpec.make("mfcev", sigma=0.3 * 100.0 ** 0.25 / math.sqrt(2.0),
                        alpha=1.5, hurst=0.6), 2.0,
         FpeGrid(x_min=0.0, x_max=44.092343677614465, n_space=2400, n_time=600),
         1.0000000000000586, 5.751024309283176e-17, 8.188546744410875e-05,
         0.18016540582511636,
         {100: 1.181871163082817e-06, 263: 0.006801789860638077,
          527: 0.18016540582511636, 1054: 0.0002457369967944642,
          1500: 2.2126326786193446e-09}, 0.03),
    ])
    def test_pinned_to_banded_lu(self, model, maturity, grid, mass,
                                     absorbed, l1, peak, nodes, rate):
        env = MarketEnv(rate=rate, spot=100.0)
        got_l1, sol = fpe_l1(model, env, maturity, grid)
        assert sol.mass == pytest.approx(mass, abs=1e-12)
        assert sol.absorbed == pytest.approx(absorbed, abs=1e-12)
        assert got_l1 == pytest.approx(l1, abs=1e-12)
        assert sol.density_x.max() == pytest.approx(peak, abs=1e-12 * peak)
        for i, value in nodes.items():
            assert sol.density_x[i] == pytest.approx(value, abs=1e-12 * peak)
        assert sol.conservation_drift <= 1e-12

    def test_failed_tridiagonal_solve_raises(self, env100, monkeypatch):
        def singular(dl, d, du, b, **_):
            return dl, d, du, b, 1

        monkeypatch.setattr(verify, "dgtsv", singular)
        with pytest.raises(NumericalError, match="at step 1 "):
            solve_fpe(ModelSpec.make("cev", sigma=0.3, alpha=1.0), env100, 1.0,
                      FpeGrid(x_min=0.0, x_max=450.0, n_space=100, n_time=100))


class TestMcMsfbs:
    def closed(self, model, env, t, e):
        v = model.sigma ** 2 * driver_variance(model.driver,
                                               model.driver_params, t)
        return black_scholes_call(env.spot, e, env.rate, t, v)

    def test_classical_three_se(self):
        env = MarketEnv(rate=0.0, spot=100.0)
        m = ModelSpec.make("bs", sigma=0.3)
        mc = mc_price_msfbs(m, env, 1.0, 100.0, McConfig(n_paths=300_000, seed=5))
        assert abs(mc.price - self.closed(m, env, 1.0, 100.0)) <= 3.0 * mc.se

    def test_msfbs_three_se(self, env100):
        m = ModelSpec.make("msfbs", sigma=0.3, hurst=0.7)
        mc = mc_price_msfbs(m, env100, 1.0, 100.0,
                            McConfig(n_paths=300_000, seed=6))
        assert abs(mc.price - self.closed(m, env100, 1.0, 100.0)) <= 3.0 * mc.se

    def test_determinism(self, env100):
        m = ModelSpec.make("msfbs", sigma=0.3, hurst=0.8)
        a = mc_price_msfbs(m, env100, 0.5, 105.0, McConfig(n_paths=50_000, seed=3))
        b = mc_price_msfbs(m, env100, 0.5, 105.0, McConfig(n_paths=50_000, seed=3))
        assert a == b

    def test_unbiasedness_z_scores(self, env100):
        m = ModelSpec.make("msfbs", sigma=0.3, hurst=0.7)
        closed = self.closed(m, env100, 1.0, 100.0)
        inside = 0
        for rep in range(100):
            mc = mc_price_msfbs(m, env100, 1.0, 100.0,
                                McConfig(n_paths=100_000, seed=2000 + rep))
            inside += abs(mc.price - closed) <= 3.0 * mc.se
        assert inside >= 95

    def test_family_gate(self, env100):
        with pytest.raises(DomainError):
            mc_price_msfbs(ModelSpec.make("msfcev", sigma=0.3, hurst=0.7),
                           env100, 1.0, 100.0, McConfig(n_paths=10_000, seed=0))


class TestMcCevClassical:
    def test_zero_vol_limit(self, env100):
        # deterministic forward, up to the O(dt) drift compounding error
        m = ModelSpec.make("cev", sigma=1e-8, alpha=1.0)
        mc = mc_price_cev_classical(m, env100, 1.0, 90.0,
                                    McConfig(n_paths=10_000, n_steps=1000, seed=1))
        intrinsic = 100.0 - 90.0 * math.exp(-0.05)
        assert mc.price == pytest.approx(intrinsic, rel=1e-4)
        assert mc.se == pytest.approx(0.0, abs=1e-6)

    def test_absolute_vol_against_closed_form(self, env100):
        m = ModelSpec.make("cev", sigma=3.0, alpha=1.0)
        closed = call_price(m, env100, 1.0, 100.0)
        mc = mc_price_cev_classical(m, env100, 1.0, 100.0,
                                    McConfig(n_paths=60_000, n_steps=200, seed=21))
        assert abs(mc.price - closed) <= 3.0 * mc.se

    def test_near_lognormal_limit(self, env100):
        alpha = 1.999
        m = ModelSpec.make("cev", sigma=0.3, alpha=alpha)
        v = (0.3 * 100.0 ** (alpha / 2.0 - 1.0)) ** 2
        bs = black_scholes_call(100.0, 100.0, 0.05, 1.0, v)
        mc = mc_price_cev_classical(m, env100, 1.0, 100.0,
                                    McConfig(n_paths=60_000, n_steps=200, seed=2))
        assert abs(mc.price - bs) <= 3.0 * mc.se

    def test_step_guidance_warning(self, env100):
        m = ModelSpec.make("cev", sigma=0.3, alpha=1.0)
        with pytest.warns(RuntimeWarning, match="n_steps"):
            mc_price_cev_classical(m, env100, 1.0, 100.0,
                                   McConfig(n_paths=2_000, n_steps=50, seed=1))

    def test_driver_gate(self, env100):
        with pytest.raises(DomainError):
            mc_price_cev_classical(ModelSpec.make("msfcev", sigma=0.3, hurst=0.7),
                                   env100, 1.0, 100.0,
                                   McConfig(n_paths=10_000, n_steps=200, seed=0))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=200, seed=0)
        with pytest.raises(DomainError):
            McConfig(n_paths=10_000, n_steps=5, seed=0)


class TestMcPinned:
    """Seeded prices and standard errors, pinned bit for bit.

    The block substreams make a seed reproduce the same bytes on any
    machine; these values were recorded before the two pricers shared their
    block loop.  The path counts are not multiples of the block sizes
    (65536 and 16384), so the short last block is covered.
    """

    @pytest.mark.parametrize("n_paths,price,se", [
        (70001, 15.37678895237875, 0.10718510599854474),
        (65536, 15.313615729476615, 0.11047948611790548),
    ])
    def test_msfbs(self, env100, n_paths, price, se):
        m = ModelSpec.make("msfbs", sigma=0.3, hurst=0.7)
        mc = mc_price_msfbs(m, env100, 1.0, 105.0,
                            McConfig(n_paths=n_paths, seed=17))
        assert (mc.price, mc.se) == (price, se)

    def test_cev_classical(self, env100):
        m = ModelSpec.make("cev", sigma=3.0, alpha=1.0)
        mc = mc_price_cev_classical(m, env100, 0.5, 95.0,
                                    McConfig(n_paths=20001, n_steps=100, seed=23))
        assert (mc.price, mc.se) == (12.357986672137894, 0.10921166871068842)

    def test_cev_classical_absorbed_paths(self, env100):
        # local volatility 30 S^(-0.9): about 1.7% of the paths hit zero
        m = ModelSpec.make("cev", sigma=30.0, alpha=0.2)
        mc = mc_price_cev_classical(m, env100, 1.0, 90.0,
                                    McConfig(n_paths=20001, n_steps=200, seed=29))
        assert (mc.price, mc.se) == (26.444331405579423, 0.2286543262932333)


NON_FINITE_CALLS = {
    "mc_price_msfbs": lambda env, t, k: mc_price_msfbs(
        ModelSpec.make("msfbs", sigma=0.3, hurst=0.7), env, t, k,
        McConfig(n_paths=2_000, seed=1)),
    "mc_price_cev_classical": lambda env, t, k: mc_price_cev_classical(
        ModelSpec.make("cev", sigma=3.0, alpha=1.0), env, t, k,
        McConfig(n_paths=2_000, n_steps=200, seed=1)),
    "quadrature_price": lambda env, t, k: quadrature_price(
        ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75), env, t, k),
    "solve_fpe": lambda env, t, k: solve_fpe(
        ModelSpec.make("cev", sigma=0.3, alpha=1.0), env, t,
        FpeGrid(x_min=0.0, x_max=450.0, n_space=100, n_time=100)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry,argument", [
    (entry, argument) for entry in sorted(NON_FINITE_CALLS)
    for argument in ("maturity", "strike")
    if (entry, argument) != ("solve_fpe", "strike")])  # it takes no strike
def test_entry_points_reject_non_finite(env100, entry, argument, bad):
    t, k = (bad, 100.0) if argument == "maturity" else (1.0, bad)
    with pytest.raises(DomainError, match=f"{argument} must be .*finite"):
        NON_FINITE_CALLS[entry](env100, t, k)


README_POINT = dict(model=ModelSpec.make("msfcev", sigma=0.3, alpha=1.2,
                                         hurst=0.75),
                    maturity=0.5, strike=105.0)
CEV_POINT = dict(model=ModelSpec.make("cev", sigma=3.0, alpha=1.0),
                 maturity=1.0, strike=100.0)
BS_POINT = dict(model=ModelSpec.make("msfbs", sigma=0.3, hurst=0.7),
                maturity=1.0, strike=100.0)


class TestRunChecks:
    @pytest.mark.parametrize("point,with_mc,with_fpe,names", [
        (CEV_POINT, False, False,
         ["phi_closed_vs_quadrature_rel", "price_closed_vs_quadrature_rel",
          "martingale_rel_gap", "price_within_rational_bounds"]),
        (CEV_POINT, True, True,
         ["phi_closed_vs_quadrature_rel", "price_closed_vs_quadrature_rel",
          "martingale_rel_gap", "euler_mc_z_score", "fpe_l1_distance",
          "price_within_rational_bounds"]),
        # the Euler oracle covers the classical driver only, so --with-mc
        # adds nothing at a mixed-driver point
        (README_POINT, True, True,
         ["phi_closed_vs_quadrature_rel", "price_closed_vs_quadrature_rel",
          "martingale_rel_gap", "fpe_l1_distance",
          "price_within_rational_bounds"]),
        (BS_POINT, False, False,
         ["exact_mc_z_score", "price_within_rational_bounds"]),
    ])
    def test_rows_in_order_and_passing(self, env100, point, with_mc, with_fpe,
                                       names):
        checks = run_checks(point["model"], env100, point["maturity"],
                            point["strike"], seed=3, mc_paths=50_000,
                            with_mc=with_mc, with_fpe=with_fpe)
        assert [c.name for c in checks] == names
        assert all(c.passed for c in checks), checks

    def test_tolerances(self, env100):
        checks = run_checks(CEV_POINT["model"], env100, 1.0, 100.0, seed=3,
                            mc_paths=20_000, with_mc=True)
        assert {c.name: c.tol for c in checks} == {
            "phi_closed_vs_quadrature_rel": 1e-9,
            "price_closed_vs_quadrature_rel": 1e-6,
            "martingale_rel_gap": 1e-6,
            "euler_mc_z_score": 3.0,
            "price_within_rational_bounds": 1e-9,
        }

    def test_check_passes_up_to_its_tolerance(self):
        assert Check("x", 1e-6, 1e-6).passed
        assert not Check("x", 2e-6, 1e-6).passed
        assert not Check("x", math.nan, 1e-6).passed

    def test_lost_martingale_mass_fails(self, env100, monkeypatch):
        real = verify.quadrature_price

        def half_mass(model, env, maturity, strike):
            if strike == 0.0:
                return 0.5 * env.spot
            return real(model, env, maturity, strike)

        monkeypatch.setattr(verify, "quadrature_price", half_mass)
        rows = {c.name: c for c in run_checks(
            README_POINT["model"], env100, 0.5, 105.0, seed=3, mc_paths=20_000)}
        assert rows["martingale_rel_gap"].value == pytest.approx(0.5)
        assert not rows["martingale_rel_gap"].passed
        assert rows["price_closed_vs_quadrature_rel"].passed

    def test_bounds_row_is_distance_outside_range(self, env100, monkeypatch):
        # a price above the spot sits outside [max(S0 - K e^-rT, 0), S0]
        monkeypatch.setattr(verify, "call_price", lambda *a: env100.spot + 0.25)
        rows = {c.name: c for c in run_checks(
            BS_POINT["model"], env100, 1.0, 100.0, seed=3, mc_paths=20_000)}
        assert rows["price_within_rational_bounds"].value == 0.25
        assert not rows["price_within_rational_bounds"].passed


CLOSED_FORM_POINTS = [
    ("msfcev", 0.5, 0.7, 0.25), ("msfcev", 1.0, 0.9, 1.0),
    ("mfcev", 1.5, 0.7, 2.0), ("cev", 1.0, 0.5, 1.0),
]


def per_node_quadrature_price(model, env, maturity, strike):
    """quadrature_price's integral, with the public density at every node."""
    ints = cev_intermediates(model, env, maturity, strike=max(strike, 1e-12))
    a = model.alpha
    nu = 1.0 / (2.0 - a)
    two_w_hi = (2.0 * ints.y_s + 2.0 * nu + 2.0
                + 40.0 * math.sqrt(2.0 * (2.0 + 2.0 * nu + 4.0 * ints.y_s))
                + 200.0)
    s_hi = (0.5 * two_w_hi / ints.k_s) ** (1.0 / (2.0 - a))
    mode = env.spot * math.exp(env.rate * maturity)
    pts = [p for p in (mode,) if strike < p < s_hi]
    value, _ = integrate.quad(
        lambda s_t: (s_t - strike) * transition_density(model, env, maturity, s_t),
        strike, s_hi, epsabs=0.0, epsrel=1e-9, limit=800, points=pts or None)
    return math.exp(-env.rate * maturity) * value


def per_node_phi_quadrature(model, env, maturity):
    """effective_variance_quadrature's integral, with the public kernel."""
    p = model.driver_params
    c = (2.0 - model.alpha) * env.rate

    def integrand(u):
        kern = 0.5 * p.beta ** 2
        if p.gamma != 0.0 and model.driver != Driver.CLASSICAL:
            kern += p.gamma ** 2 * diffusion_kernel(model.driver, p.hurst,
                                                    maturity - u)
        return kern * math.exp(c * u)

    value, _ = integrate.quad(integrand, 0.0, maturity,
                              epsabs=0.0, epsrel=1e-12, limit=500)
    return model.sigma ** 2 * (2.0 - model.alpha) ** 2 * value


class TestQuadraturePrice:
    @pytest.mark.parametrize("name,alpha,h,t", CLOSED_FORM_POINTS)
    def test_matches_closed_form(self, env100, name, alpha, h, t):
        m = ModelSpec.make(name, sigma=0.3, alpha=alpha, hurst=h)
        quad = quadrature_price(m, env100, t, 100.0)
        closed = call_price(m, env100, t, 100.0)
        assert quad == pytest.approx(closed, rel=1e-6)

    # two former faults: near alpha 2 an integral in S over [K, s_hi] with
    # one breakpoint missed the density's peak (0.127 for 17.117), and at
    # K 250 the closed form's chi-squared tails were lost (1.03e-157 for
    # 1.06e-160, which the old oracle had right)
    @pytest.mark.parametrize("sigma,alpha,t,strike", [
        (0.376, 1.9, 1.0, 100.0), (0.3, 1.2, 0.5, 250.0)])
    def test_known_fault_matches_closed_form(self, env100, sigma, alpha, t,
                                             strike):
        m = ModelSpec.make("msfcev", sigma=sigma, alpha=alpha, hurst=0.75)
        quad = quadrature_price(m, env100, t, strike)
        closed = call_price(m, env100, t, strike)
        assert quad == pytest.approx(closed, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("strike", [100.0, 0.0])
    @pytest.mark.parametrize("name,alpha,h,t", CLOSED_FORM_POINTS)
    def test_hoisted_phi_matches_per_node_reference(self, env100, monkeypatch,
                                                    name, alpha, h, t, strike):
        # Phi, or the kernel of its integral, at most once per call: both
        # oracles hoist it out of their integrands, and still compute the
        # per-node integrals
        m = ModelSpec.make(name, sigma=0.3, alpha=alpha, hurst=h)
        price_ref = per_node_quadrature_price(m, env100, t, strike)
        phi_ref = per_node_phi_quadrature(m, env100, t)
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for fn in (pricing.effective_variance, pricing.diffusion_kernel):
            for module in (pricing, verify):
                monkeypatch.setattr(module, fn.__name__, counted(fn))
        assert quadrature_price(m, env100, t, strike) == pytest.approx(
            price_ref, rel=1e-12, abs=0.0)
        assert len(calls) <= 1, calls
        calls.clear()
        assert effective_variance_quadrature(m, env100, t) == pytest.approx(
            phi_ref, rel=1e-12, abs=0.0)
        assert len(calls) <= 1, calls

    @pytest.mark.parametrize("strike", [150.0, 200.0])
    def test_deep_otm_tail_matches_closed_form(self, env100, strike):
        # prices of 1e-25 and 1e-83: no absolute tolerance may swallow them
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        quad = quadrature_price(m, env100, 0.5, strike)
        closed = call_price(m, env100, 0.5, strike)
        assert quad == pytest.approx(closed, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("strike", [100.0, 0.0, 250.0])
    def test_one_density_call_per_price(self, env100, monkeypatch, strike):
        # every node of the panel rule goes through one array call
        shapes = []
        density = verify._density

        def counted(a, k_s, y_s, w):
            shapes.append(np.shape(w))
            return density(a, k_s, y_s, w)

        monkeypatch.setattr(verify, "_density", counted)
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        quadrature_price(m, env100, 0.5, strike)
        assert len(shapes) == 1
        assert shapes[0][1] == 15 and shapes[0][0] >= 5

    def test_kronrod_rule(self):
        # the embedded rule is 7-point Gauss-Legendre, and the 15-node
        # Kronrod rule integrates x^k exactly through k = 23
        gauss = verify._GAUSS_WEIGHTS > 0.0
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(verify._KRONROD_NODES[gauss], nodes,
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(verify._GAUSS_WEIGHTS[gauss], weights,
                                   rtol=0.0, atol=1e-15)
        for k in range(24):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert verify._KRONROD_WEIGHTS @ verify._KRONROD_NODES ** k == \
                pytest.approx(exact, abs=1e-15)

    def test_error_estimate_raises(self, env100, monkeypatch):
        # a density the rule cannot integrate: noise on the nodes parts the
        # Kronrod and Gauss values far beyond 1e-6 of the price
        density = verify._density
        rng = np.random.default_rng(0)
        monkeypatch.setattr(verify, "_density", lambda *args: density(*args)
                            * rng.uniform(0.5, 1.5, np.shape(args[-1])))
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        with pytest.raises(NumericalError, match="did not converge"):
            quadrature_price(m, env100, 0.5, 100.0)
        monkeypatch.setattr(verify, "_density", lambda *args: density(*args)
                            * math.nan)
        with pytest.raises(NumericalError, match="did not converge"):
            quadrature_price(m, env100, 0.5, 100.0)

    def test_subnormal_value_does_not_trip_the_estimate(self, env100):
        # a price below float64's smallest normal number carries too few
        # digits for a relative error test; the oracle returns it
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        value = quadrature_price(m, env100, 0.5, 336.0)
        assert 0.0 < value < np.finfo(np.float64).tiny

    def test_zero_strike_recovers_spot(self, env100):
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        value = quadrature_price(m, env100, 1.0, 0.0)
        assert value == pytest.approx(100.0, rel=1e-6)

    def test_deep_otm_bound(self, env100):
        m = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        value = quadrature_price(m, env100, 0.5, 1000.0)
        assert 0.0 <= value <= 1e-3 * 100.0

    def test_family_gate(self, env100):
        with pytest.raises(DomainError):
            quadrature_price(ModelSpec.make("bs", sigma=0.3), env100, 1.0, 100.0)


class TestExports:
    def test_density_csv(self):
        buf = io.StringIO()
        write_density_csv([90.0, 100.0], [0.01, 0.02], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "S_T,density"
        assert lines[1].startswith("90,")
