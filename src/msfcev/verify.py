"""Independent oracles for the closed-form engine.

Three routes that do not share code with the analytic pricing path:

* a Crank-Nicolson solver for the forward (Fokker-Planck) equation of the
  transformed variable x = S^(2-alpha), checked against the closed-form
  transition density;
* Monte Carlo pricers (exact terminal sampling for the BS family, an
  Euler scheme for the classical CEV) checked against the closed forms;
* a composite Gauss-Kronrod rule for the discounted payoff against the
  transition density, checked against the chi-squared price formula, and
  adaptive quadrature of the effective variance's defining integral,
  checked against its closed form.

:func:`run_checks` runs these routes as the ``msfcev verify`` suite and
returns one :class:`Check` row each; the suite's tolerances live only there.

Pathwise Euler stepping is deliberately not offered for the mixed
(sub-)fractional CEV: the calculus behind those dynamics is not the one a
naive Euler scheme discretizes, so the PDE route is the valid dynamic
oracle there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, NumericalError
from .pricing import (Driver, Family, MarketEnv, ModelSpec, _cev_coordinates,
                      _check_cev, _check_maturity, _check_strike, _density,
                      _subfractional_weight, call_price, diffusion_kernel,
                      driver_variance, effective_variance, transition_density)
from .process import block_rng

__all__ = [
    "Check",
    "FpeGrid",
    "FpeSolution",
    "McConfig",
    "McResult",
    "effective_variance_quadrature",
    "solve_fpe",
    "mc_price_msfbs",
    "mc_price_cev_classical",
    "quadrature_price",
    "run_checks",
    "skipped_checks",
]

@dataclass(frozen=True)
class FpeGrid:
    """Uniform grid in the transformed variable x = S^(2-alpha)."""

    x_min: float
    x_max: float
    n_space: int
    n_time: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.x_min < self.x_max:
            raise DomainError("need 0 <= x_min < x_max")
        if self.n_space < 50 or self.n_time < 50:
            raise DomainError("n_space and n_time must be >= 50")


@dataclass(frozen=True)
class FpeSolution:
    """Discretized terminal density, in x and mapped back to S."""

    x: np.ndarray
    density_x: np.ndarray
    s: np.ndarray
    density_s: np.ndarray
    mass: float
    absorbed: float
    conservation_drift: float


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1000:
            raise DomainError("n_paths must be >= 1000")
        if self.n_steps < 10:
            raise DomainError("n_steps must be >= 10")


@dataclass(frozen=True)
class McResult:
    price: float
    se: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class Check:
    """One row of the oracle suite: ``value`` passes when it is at most ``tol``.

    Every row's value is a distance, error or score that is 0 when the
    oracle agrees exactly, so a NaN value fails.
    """

    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol


def solve_fpe(model: ModelSpec, env: MarketEnv, maturity: float,
              grid: FpeGrid) -> FpeSolution:
    """Crank-Nicolson solution of the forward equation in x = S^(2-alpha).

        dP/dt = d^2/dx^2 [ D(t) x P ] - d/dx [ ((2-a) r x + c(t)) P ]

    with D(t) = (beta^2/2 + gamma^2 lambda(t)) (2-a)^2 sigma^2 and
    c(t) = D(t) (1-a)/(2-a).  Absorbing boundary at the left edge, zero
    density at the right edge; the initial delta is mollified to a
    Gaussian of width two grid cells.  Absorbed mass is tracked from the
    boundary flux so that mass + absorbed stays at 1.

    The interior operator is affine in D: L(t) = D(t) A + R, with the
    diffusion and the c-advection in A and the r-advection in R.  Both are
    built once, so a step forms its tridiagonal from D at the new time in
    place and solves it with one LAPACK ``gtsv`` call.  With M_n the step
    operator at D(t_n), the next right-hand side comes from the last solve:
    (I - M_n) u_n = 2 u_n - (I + M_n) u_n = 2 u_n - rhs_n, so only the first
    step forms an explicit tridiagonal product.
    """
    if model.family != Family.CEV:
        raise DomainError("the forward-equation oracle covers the CEV family only")
    _check_maturity(maturity)
    a = model.alpha
    p = model.driver_params
    x0 = env.spot ** (2.0 - a)
    n = grid.n_space
    h = (grid.x_max - grid.x_min) / n
    x = grid.x_min + h * np.arange(n + 1)
    if not (grid.x_min + 10 * h < x0 < grid.x_max - 10 * h):
        raise DomainError(
            f"grid does not cover x0 = {x0:.6g} with margin; "
            f"x range is [{grid.x_min}, {grid.x_max}]")

    dt = maturity / grid.n_time
    # a classical driver has gamma = 0 (see ModelSpec)
    kern = 0.5 * p.beta ** 2 + p.gamma ** 2 * diffusion_kernel(
        model.driver, p.hurst, dt * np.arange(grid.n_time + 1))
    d = kern * (2.0 - a) ** 2 * model.sigma ** 2

    # tridiagonals of A and R on the interior nodes, scaled by -dt/2, so the
    # implicit matrix at D is I + D A + R and the explicit one I - D A - R;
    # lower couples row i to node i-1, upper to node i+1
    kappa = (1.0 - a) / (2.0 - a)
    r2a = (2.0 - a) * env.rate
    xi = x[1:-1]
    scale = -0.5 * dt
    a_di = scale * (-2.0 * xi / h ** 2)
    a_lo = scale * (xi[:-1] / h ** 2 + kappa / (2.0 * h))
    a_up = scale * (xi[1:] / h ** 2 - kappa / (2.0 * h))
    r_lo = scale * r2a * xi[:-1] / (2.0 * h)
    r_up = -scale * r2a * xi[1:] / (2.0 * h)

    x_1, x_n = float(xi[0]), float(xi[-1])

    def outflow(u: np.ndarray, dk: float) -> float:
        """Rate at which mass leaves through both edges."""
        return (u[0] * (dk * (x_1 / h - 0.5 * kappa) - 0.5 * r2a * x_1)
                + u[-1] * (dk * (x_n / h + 0.5 * kappa) + 0.5 * r2a * x_n))

    # mollified delta, normalized to discrete mass 1
    width = 2.0 * h
    dens = np.exp(-0.5 * ((x - x0) / width) ** 2)
    dens[0] = dens[-1] = 0.0
    dens /= np.trapezoid(dens, dx=h)

    u = dens[1:-1]
    di, lo, up = d[0] * a_di, d[0] * a_lo + r_lo, d[0] * a_up + r_up
    rhs = u - di * u
    rhs[:-1] -= up * u[1:]
    rhs[1:] -= lo * u[:-1]
    out_now = outflow(u, d[0])
    absorbed = 0.0
    drift_max = 0.0
    for step in range(1, grid.n_time + 1):
        prev = rhs.copy()
        # gtsv overwrites all four arrays, so the bands are rebuilt each step
        np.multiply(a_di, d[step], out=di)
        di += 1.0
        np.multiply(a_lo, d[step], out=lo)
        lo += r_lo
        np.multiply(a_up, d[step], out=up)
        up += r_up
        _, _, _, u, info = dgtsv(lo, di, up, rhs, overwrite_dl=1, overwrite_d=1,
                                 overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(
                f"tridiagonal solve failed at step {step} (LAPACK info {info})")
        out_next = outflow(u, d[step])
        absorbed += 0.5 * (out_now + out_next) * dt
        out_now = out_next
        mass = h * float(u.sum())
        drift = abs(mass + absorbed - 1.0)
        drift_max = max(drift_max, drift)
        if drift > 1e-3:
            raise NumericalError(
                f"mass conservation drifted to {drift:.3e} at step {step}; "
                "refine the grid or widen the x range")
        rhs = 2.0 * u - prev
    dens = np.concatenate(([0.0], u, [0.0]))
    s = np.zeros_like(x)
    np.power(x, 1.0 / (2.0 - a), out=s, where=x > 0.0)
    jac = np.zeros_like(s)
    np.power(s, 1.0 - a, out=jac, where=s > 0.0)
    density_s = dens * (2.0 - a) * jac
    return FpeSolution(x=x, density_x=dens, s=s, density_s=density_s,
                       mass=mass, absorbed=absorbed,
                       conservation_drift=drift_max)


def _mc_price(cfg: McConfig, disc: float, block: int, draw_shape: tuple,
              payoff) -> McResult:
    """Discounted Monte Carlo mean of ``payoff(z)`` and its standard error.

    Block ``b`` of at most ``block`` draws of standard normals, each of shape
    ``draw_shape``, comes from ``block_rng(cfg.seed, b)``, so a seed fixes
    the result on every machine.
    """
    n = cfg.n_paths
    total = total_sq = 0.0
    for b, done in enumerate(range(0, n, block)):
        z = block_rng(cfg.seed, b).standard_normal(
            (min(block, n - done),) + draw_shape)
        y = payoff(z)
        total += float(y.sum())
        total_sq += float((y ** 2).sum())
    mean = total / n
    var = max(total_sq / n - mean ** 2, 0.0)
    return McResult(price=disc * mean, se=disc * math.sqrt(var / n),
                    n_paths=cfg.n_paths, seed=cfg.seed)


def mc_price_msfbs(model: ModelSpec, env: MarketEnv, maturity: float,
                   strike: float, cfg: McConfig) -> McResult:
    """Exact-terminal-sampling price for the BS family.

    S_T = S0 exp(r T - v/2 + sigma M_T) with M_T drawn from the driver's
    exact normal law at T; unbiased, so the estimate is a clean oracle for
    the closed form.
    """
    if model.family != Family.BS:
        raise DomainError("mc_price_msfbs covers the BS family only")
    _check_maturity(maturity)
    _check_strike(strike)
    v = model.sigma ** 2 * driver_variance(model.driver, model.driver_params,
                                           maturity)
    sd = math.sqrt(v)
    drift = env.rate * maturity - 0.5 * v

    def payoff(z: np.ndarray) -> np.ndarray:
        return np.maximum(env.spot * np.exp(drift + sd * z) - strike, 0.0)

    return _mc_price(cfg, math.exp(-env.rate * maturity), 65536, (), payoff)


def mc_price_cev_classical(model: ModelSpec, env: MarketEnv, maturity: float,
                           strike: float, cfg: McConfig) -> McResult:
    """Euler-Maruyama price for the classical-driver CEV model.

    Paths hitting zero are frozen there (absorption).  Weak order one;
    n_steps below 200 * T triggers a bias warning.
    """
    if model.family != Family.CEV or model.driver != Driver.CLASSICAL:
        raise DomainError("the Euler oracle covers the classical-driver CEV only")
    _check_maturity(maturity)
    _check_strike(strike)
    if cfg.n_steps < 200 * maturity:
        warnings.warn(
            f"n_steps = {cfg.n_steps} is below the 200 * T = {200 * maturity:.0f} "
            "guidance; the Euler estimate may carry visible bias",
            RuntimeWarning, stacklevel=2)
    sig = model.sigma * model.driver_params.beta
    half_alpha = 0.5 * model.alpha
    dt = maturity / cfg.n_steps
    sq_dt = math.sqrt(dt)

    def payoff(z: np.ndarray) -> np.ndarray:
        s = np.full(z.shape[0], env.spot)
        for step in range(cfg.n_steps):
            # every path takes the step; one that has hit zero stays there
            nxt = s + env.rate * s * dt + sig * s ** half_alpha * sq_dt * z[:, step]
            s = np.where(s > 0.0, np.maximum(nxt, 0.0), 0.0)
        return np.maximum(s - strike, 0.0)

    return _mc_price(cfg, math.exp(-env.rate * maturity), 16384,
                     (cfg.n_steps,), payoff)


def effective_variance_quadrature(model: ModelSpec, env: MarketEnv,
                                  maturity: float) -> float:
    """Phi(T) by adaptive quadrature of its defining integral.

        Phi(T) = sigma^2 (2-alpha)^2 * integral_0^T [beta^2/2
                 + gamma^2 * lambda(T-u)] * exp((2-alpha) r u) du
    """
    from scipy import integrate  # only here: it loads all of scipy's optimizers

    _check_cev(model)
    _check_maturity(maturity)
    p = model.driver_params
    a = model.alpha
    c = (2.0 - a) * env.rate
    # diffusion_kernel(driver, H, t) = H t^(2H-1) w_H, its checks and
    # constants hoisted out of the integrand: the model has validated H, and
    # T - u >= 0 on [0, T]
    kern = 0.5 * p.beta ** 2
    mixed = p.gamma != 0.0 and model.driver != Driver.CLASSICAL
    gamma2, hurst = p.gamma ** 2, p.hurst
    power = 2.0 * hurst - 1.0
    weight = _subfractional_weight(model.driver, hurst)

    def integrand(u: float) -> float:
        if mixed:
            return ((kern + gamma2 * (hurst * (maturity - u) ** power * weight))
                    * math.exp(c * u))
        return kern * math.exp(c * u)

    value, _ = integrate.quad(integrand, 0.0, maturity,
                              epsabs=0.0, epsrel=1e-12, limit=500)
    return model.sigma ** 2 * (2.0 - a) ** 2 * value


# 15-node Kronrod rule on [-1, 1] and its embedded 7-node Gauss rule
# (QUADPACK qk15), the Gauss weights zero at the Kronrod-only nodes
_KRONROD_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_KRONROD_HALF_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GAUSS_HALF_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0,
    0.279705391489276667901467771423780, 0.0,
    0.381830050505118944950369775488975, 0.0,
    0.417959183673469387755102040816327])
_KRONROD_NODES = np.concatenate((-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]))
_KRONROD_WEIGHTS = np.concatenate((_KRONROD_HALF_WEIGHTS[:-1],
                                   _KRONROD_HALF_WEIGHTS[::-1]))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS[:-1],
                                 _GAUSS_HALF_WEIGHTS[::-1]))
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64


def _scale_and_spot(model: ModelSpec, env: MarketEnv, maturity: float):
    """k_s = 1/Phi(T) and the spot's chi-squared coordinate y_s, as floats."""
    phi, y_s, _ = _cev_coordinates(model, env.spot, maturity, env.rate, 0.0)
    return 1.0 / float(phi), float(y_s)


def quadrature_price(model: ModelSpec, env: MarketEnv, maturity: float,
                     strike: float) -> float:
    """Discounted payoff integrated against the transition density.

    The integral runs in u = sqrt(w), w = k_s S^(2-alpha), in which the
    density falls like exp(-(u - sqrt(y_s))^2) on both sides of its centre
    sqrt(y_s + nu + 1); S = (u^2/k_s)^nu and dS = 2 nu S/u du.  It spans
    max(u_K, centre - 10) to sqrt(d^2 + 60) - d past max(u_K, centre),
    d = max(u_K - centre, 0), in equal panels at most min(1, 2/d) wide.
    Near u = 0 the integrand is a non-integer power of u, so a first panel
    that starts within its own width of 0 is split in eight, halving
    towards 0.  Every panel takes the 15-node Kronrod rule, all nodes
    through one array call of the density, and the error estimate is the
    summed gap between each panel's Kronrod and embedded Gauss values.
    """
    if model.family != Family.CEV:
        raise DomainError("quadrature_price covers the CEV family only")
    _check_maturity(maturity)
    _check_strike(strike, zero_ok=True)
    k_s, y_s = _scale_and_spot(model, env, maturity)
    a = model.alpha
    nu = 1.0 / (2.0 - a)
    u_k = math.sqrt(k_s * strike ** (2.0 - a))
    centre = math.sqrt(y_s + nu + 1.0)
    d = max(u_k - centre, 0.0)
    lo = max(u_k, centre - 10.0)
    hi = max(u_k, centre) + math.sqrt(d * d + 60.0) - d
    edges = np.linspace(lo, hi, math.ceil((hi - lo) * max(1.0, 0.5 * d)) + 1)
    if lo < edges[1] - lo:
        graded = edges[1] * 0.5 ** np.arange(8, 0, -1)
        edges = np.concatenate(([lo], graded[graded > lo], edges[1:]))
    half = 0.5 * np.diff(edges)
    u = edges[:-1, None] + half[:, None] * (1.0 + _KRONROD_NODES)
    w = u * u
    s_t = (w / k_s) ** nu
    f = (s_t - strike) * _density(a, k_s, y_s, w) * (2.0 * nu * s_t / u)
    kronrod = half * (f @ _KRONROD_WEIGHTS)
    value = float(kronrod.sum())
    err = float(np.abs(kronrod - half * (f @ _GAUSS_WEIGHTS)).sum())
    # a subnormal value carries too few digits for a relative error test
    if not math.isfinite(value) or (value >= _TINY and err > 1e-6 * value):
        raise NumericalError(
            f"payoff quadrature did not converge: value={value!r}, err={err!r}")
    return math.exp(-env.rate * maturity) * value


def _mc_check(name: str, mc: McResult, price: float) -> Check:
    """The Monte Carlo estimate's z-score against the closed-form price."""
    return Check(name, abs(mc.price - price) / mc.se if mc.se > 0 else 0.0, 3.0)


def run_checks(model: ModelSpec, env: MarketEnv, maturity: float, strike: float,
               *, seed: int, mc_paths: int, with_mc: bool = False,
               with_fpe: bool = False) -> list[Check]:
    """The oracle suite of ``msfcev verify`` at one point, in table order.

    CEV family: Phi against quadrature of its integral, the price against
    payoff quadrature, and the martingale identity e^(-rT) E[S_T] = S0 as
    the K = 0 payoff quadrature; ``with_mc`` adds the Euler Monte Carlo
    z-score (classical driver only) and ``with_fpe`` the L1 distance of the
    forward-equation density from the closed form.  BS family: the
    exact-sampling Monte Carlo z-score.  Last, for both, the price's
    distance outside the no-arbitrage range [max(S0 - K e^(-rT), 0), S0].
    :func:`skipped_checks` names the requested rows a model does not get.
    """
    price = call_price(model, env, maturity, strike)
    checks = []
    if model.family == Family.CEV:
        phi_c = effective_variance(model, env, maturity)
        phi_q = effective_variance_quadrature(model, env, maturity)
        checks.append(Check("phi_closed_vs_quadrature_rel",
                            abs(phi_c - phi_q) / phi_q, 1e-9))
        quad = quadrature_price(model, env, maturity, strike)
        checks.append(Check("price_closed_vs_quadrature_rel",
                            abs(price - quad) / max(quad, 1e-300), 1e-6))
        mass = quadrature_price(model, env, maturity, 0.0)
        checks.append(Check("martingale_rel_gap", abs(mass / env.spot - 1.0), 1e-6))
        if with_mc and model.driver == Driver.CLASSICAL:
            cfg = McConfig(n_paths=mc_paths, n_steps=max(10, int(200 * maturity)),
                           seed=seed)
            mc = mc_price_cev_classical(model, env, maturity, strike, cfg)
            checks.append(_mc_check("euler_mc_z_score", mc, price))
        if with_fpe:
            k_s, y_s = _scale_and_spot(model, env, maturity)
            x0 = env.spot ** (2.0 - model.alpha)
            x_hi = (y_s + 12.0 * math.sqrt(y_s) + 60.0) / k_s
            grid = FpeGrid(x_min=0.0, x_max=max(x_hi, 1.5 * x0), n_space=2400,
                           n_time=600)
            sol = solve_fpe(model, env, maturity, grid)
            keep = sol.s > 0
            closed = transition_density(model, env, maturity, sol.s[keep])
            l1 = float(np.trapezoid(np.abs(sol.density_s[keep] - closed),
                                    sol.s[keep]))
            checks.append(Check("fpe_l1_distance", l1, 1e-2))
    else:
        mc = mc_price_msfbs(model, env, maturity, strike,
                            McConfig(n_paths=mc_paths, seed=seed))
        checks.append(_mc_check("exact_mc_z_score", mc, price))
    lower = max(env.spot - strike * math.exp(-env.rate * maturity), 0.0)
    checks.append(Check("price_within_rational_bounds",
                        max(lower - price, price - env.spot, 0.0), 1e-9))
    return checks


def skipped_checks(model: ModelSpec, *, with_mc: bool = False,
                   with_fpe: bool = False) -> list[str]:
    """Names of the requested optional rows that :func:`run_checks` cannot run.

    The Euler Monte Carlo covers the classical-driver CEV only (the BS
    suite always runs its exact Monte Carlo), and the forward equation the
    CEV family only.
    """
    skipped = []
    if with_mc and model.family == Family.CEV and model.driver != Driver.CLASSICAL:
        skipped.append("euler_mc_z_score")
    if with_fpe and model.family != Family.CEV:
        skipped.append("fpe_l1_distance")
    return skipped
