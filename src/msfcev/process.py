"""Mixed sub-fractional driver: covariance structure and exact simulation.

The driver is ``M_t = beta * B_t + gamma * xi_t`` where ``B`` is a standard
Brownian motion and ``xi`` an independent sub-fractional Brownian motion
with Hurst index H.  The sub-fractional covariance is

    cov(xi_s, xi_t) = s^2H + t^2H - ((s+t)^2H + |t-s|^2H) / 2

which reduces to min(s, t) at H = 1/2.  Sampling is exact: the joint
Gaussian law over a time grid is factorized and multiplied into seeded
normal draws.  The draws come in blocks of paths, each from its own
counter-based substream, and large batches run their blocks on every
usable core.  On grids of up to 64 intervals the paths are the same bits
for any number of cores; on wider grids OpenBLAS threads the product
itself, and its threading moves the last bits (at 300 time points the
paths differ between ``OPENBLAS_NUM_THREADS=1`` and ``2``).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "MixedDriverParams",
    "TimeGrid",
    "PathBatch",
    "sfbm_covariance",
    "msfbm_covariance",
    "increment_covariance",
    "increment_variance",
    "covariance_matrix",
    "sample_msfbm",
    "block_rng",
]

# paths per RNG substream; fixed, so the paths never depend on how many
# cores draw the blocks or in what order they finish
_BLOCK = 4096
# rows * m * m of one product in the pool: OpenBLAS runs a GEMM this small
# on the calling thread and never wakes its own threads, which would spin
# against the pool's
_GEMM_ELEMENTS = 2 ** 18
_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid that made it, pool)
_pool_lock = threading.Lock()
_buffers = threading.local()  # each pool thread's normal buffer


@dataclass(frozen=True)
class MixedDriverParams:
    """Weights and Hurst index of the mixed driver.

    ``beta`` scales the Brownian component, ``gamma`` the sub-fractional
    one.  Statistics accept any H in (0, 1); the pricing layer enforces
    its stricter H >= 1/2 gate separately.
    """

    hurst: float
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(hurst=self.hurst, beta=self.beta, gamma=self.gamma)
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"hurst must lie in (0, 1), got {self.hurst!r}")
        if self.beta < 0.0 or self.gamma < 0.0:
            raise DomainError("beta and gamma must be >= 0")
        if self.beta == 0.0 and self.gamma == 0.0:
            raise DomainError("beta + gamma must be positive")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0, in years."""

    times: tuple

    def __init__(self, times) -> None:
        t = tuple(float(v) for v in times)
        _check_times(t)
        if len(t) < 2:
            raise DomainError("time grid needs at least two points")
        if t[0] != 0.0:
            raise DomainError("time grid must start at 0")
        for a, b in zip(t, t[1:]):
            if b - a <= 1e-12 * max(1.0, abs(b)):
                raise DomainError(
                    f"times must be strictly increasing; {a} -> {b} is too close")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.times)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=np.float64)


@dataclass(frozen=True)
class PathBatch:
    """Sampled driver paths, one row per path, columns follow the grid."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.paths.ndim != 2 or self.paths.shape[1] != len(self.grid):
            raise DomainError("paths shape inconsistent with grid")

    def to_csv(self, target) -> None:
        """Write ``t_0,t_1,...`` header plus one row per path."""
        header = ",".join(f"t_{i}" for i in range(len(self.grid)))
        if isinstance(target, (str, bytes, os.PathLike)):
            with open(target, "w", encoding="utf-8") as fh:
                self.to_csv(fh)
            return
        np.savetxt(target, self.paths, delimiter=",", header=header,
                   comments="", fmt="%.17g")


def _check_finite(**values) -> None:
    """Reject NaN and infinite scalar inputs where they enter."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _check_times(*times) -> list:
    """``times`` as float64 arrays, each checked finite and >= 0."""
    # at least 1-d, so that a time alone takes numpy's array loops: its
    # scalar arithmetic rounds powers differently
    arrays = [np.array(t, dtype=np.float64, ndmin=1) for t in times]
    for t in arrays:
        ok = (t >= 0.0) & (t < math.inf)
        if not ok.all():
            raise DomainError(f"times must be finite and >= 0, got {float(t[~ok][0])!r}")
    return arrays


def sfbm_covariance(s, t, hurst: float):
    """Covariance of the sub-fractional component at times s, t >= 0.

    The mixed driver's at beta = 0, gamma = 1; see :func:`msfbm_covariance`.
    """
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must lie in (0, 1), got {hurst!r}")
    return msfbm_covariance(s, t, MixedDriverParams(hurst=hurst, beta=0.0, gamma=1.0))


def msfbm_covariance(s, t, params: MixedDriverParams):
    """Covariance of the mixed driver: beta^2 min(s,t) + gamma^2 * sub-fractional part.

    Broadcasts over arrays of times; floats give a float.
    """
    out = _covariance(*_check_times(s, t), params)
    return float(out[0]) if np.ndim(s) == np.ndim(t) == 0 else out


def _covariance(s, t, params: MixedDriverParams):
    """:func:`msfbm_covariance` of checked time arrays."""
    h2 = 2.0 * params.hurst
    out = params.beta ** 2 * np.minimum(s, t)
    if params.gamma != 0.0:
        out = out + params.gamma ** 2 * (
            s ** h2 + t ** h2 - 0.5 * ((s + t) ** h2 + np.abs(t - s) ** h2))
    return out


def increment_covariance(u: float, v: float, s: float, t: float,
                         params: MixedDriverParams) -> float:
    """cov(M_v - M_u, M_t - M_s) for non-overlapping windows t > s >= v > u >= 0.

    Positive for H > 1/2, negative for H < 1/2, zero at H = 1/2.
    """
    if not (t > s >= v > u >= 0.0):
        raise DomainError(
            f"need t > s >= v > u >= 0, got u={u}, v={v}, s={s}, t={t}")
    h2 = 2.0 * params.hurst
    g2 = params.gamma ** 2
    return 0.5 * g2 * ((t + u) ** h2 + (t - u) ** h2
                       + (s + v) ** h2 + (s - v) ** h2
                       - (t + v) ** h2 - (t - v) ** h2
                       - (s + u) ** h2 - (s - u) ** h2)


def increment_variance(s: float, t: float, params: MixedDriverParams) -> float:
    """Var(M_t - M_s) for 0 <= s < t; not a function of t - s alone.

    Equals cov(t,t) + cov(s,s) - 2 cov(s,t) expanded; note the +|t-s|^2H
    sign (setting s = 0 must recover the marginal variance, and H = 1/2
    must recover t - s).
    """
    if not 0.0 <= s < t:
        raise DomainError(f"need 0 <= s < t, got s={s}, t={t}")
    h2 = 2.0 * params.hurst
    out = params.beta ** 2 * (t - s)
    if params.gamma != 0.0:
        out += params.gamma ** 2 * (-(2.0 ** (h2 - 1.0)) * (s ** h2 + t ** h2)
                                    + (s + t) ** h2 + (t - s) ** h2)
    return out


def covariance_matrix(grid: TimeGrid, params: MixedDriverParams) -> np.ndarray:
    """Driver covariance over the positive grid times (t = 0 excluded)."""
    ts = grid.as_array()[1:]
    return _covariance(*np.meshgrid(ts, ts, indexing="ij"), params)


def _factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor L with L @ L.T = cov.

    Cholesky first; if the matrix is only semi-definite up to rounding,
    fall back to a symmetric eigendecomposition with small negative
    eigenvalues clipped to zero.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vmax = float(vals.max(initial=0.0))
        if vmax <= 0.0 or float(vals.min()) < -1e-10 * vmax:
            raise NumericalError(
                "driver covariance is not positive semi-definite within "
                f"tolerance: eigenvalue range [{vals.min():.3e}, {vmax:.3e}]")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_msfbm(grid: TimeGrid, params: MixedDriverParams,
                 n_paths: int, seed: int) -> PathBatch:
    """Draw exact joint samples of the driver over the grid.

    Deterministic for a given seed: paths are generated in fixed blocks of
    4096, each from its own counter-based substream.  On grids of up to 64
    intervals, batches of more than two blocks per usable core run on a
    pool of one thread per core, and each block's product is split into
    row chunks small enough for OpenBLAS to run on one thread; the paths
    are the same bits for any number of cores, pool or not.  Wider grids
    run their blocks one after another, and OpenBLAS threads each block's
    product; there its threading moves the last bits (at 300 time points
    the paths differ between ``OPENBLAS_NUM_THREADS=1`` and ``2``).
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    _check_seed(seed)
    factor = _factor(covariance_matrix(grid, params))
    m = len(grid) - 1
    out = np.zeros((n_paths, m + 1))
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    chunk = _GEMM_ELEMENTS // (m * m)
    cores = _usable_cores()
    # wide grids, where the product dominates and OpenBLAS threads it, run
    # serially, and so do small batches: on two cores, batches of up to four
    # blocks gained nothing on the pool when other work ran between them
    pooled = chunk >= 64 and cores > 1 and n_blocks > 2 * cores

    def draw(b: int, z: np.ndarray) -> None:
        lo = b * _BLOCK
        hi = min(lo + _BLOCK, n_paths)
        zb = z[:(hi - lo) * m].reshape(hi - lo, m)
        _philox(seed, b).standard_normal(out=zb)
        # chunks of near-equal size, so none is a short remainder: OpenBLAS
        # multiplies one row, or a few (rows * m <= 1200 at m >= 32), with
        # other kernels, whose sums round differently from the block's
        n_chunks = (hi - lo + chunk - 1) // chunk if pooled else 1
        edges = [(hi - lo) * k // n_chunks for k in range(n_chunks + 1)]
        for i, j in zip(edges, edges[1:]):
            np.matmul(zb[i:j], factor.T, out=out[lo + i:lo + j, 1:])

    if pooled:
        for _ in _block_pool(cores).map(lambda b: draw(b, _worker_buffer(_BLOCK * m)),
                                        range(n_blocks)):
            pass
    else:
        z = np.empty(min(_BLOCK, n_paths) * m)
        for b in range(n_blocks):
            draw(b, z)
    return PathBatch(grid=grid, paths=out, seed=seed)


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` sampling threads, made on first use.

    Keyed by the process id: a pool inherited through ``fork`` has no
    threads, and work handed to it would never run.
    """
    global _pool
    pid = os.getpid()
    with _pool_lock:
        if _pool is None or _pool[0] != pid:
            _pool = (pid, ThreadPoolExecutor(max_workers=workers))
        return _pool[1]


def _worker_buffer(size: int) -> np.ndarray:
    """This thread's buffer of at least ``size`` floats, kept between calls.

    A fresh block buffer would be mapped and unmapped by every block while
    glibc's mmap threshold is at or below its size.
    """
    z = getattr(_buffers, "z", None)
    if z is None or z.size < size:
        z = _buffers.z = np.empty(size)
    return z


def _check_seed(seed: int) -> None:
    """Reject a seed that is not an unsigned 64-bit integer."""
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must be an unsigned 64-bit integer")


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based generator for one path block.

    The 128-bit Philox key combines the user seed (low word) with the
    block index (high word), giving independent streams per block without
    any sequential jumping.
    """
    _check_seed(seed)
    return _philox(seed, block)


def _philox(seed: int, block: int) -> np.random.Generator:
    """:func:`block_rng` of a checked seed."""
    return np.random.Generator(np.random.Philox(key=seed + (block << 64)))
