import io
import math
import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfcev import process
from msfcev.errors import DomainError
from msfcev.process import (MixedDriverParams, PathBatch, TimeGrid,
                            block_rng, covariance_matrix, increment_covariance,
                            increment_variance, msfbm_covariance,
                            sample_msfbm, sfbm_covariance)


def _block_reference(grid, params, n_paths, seed):
    """The paths as one fresh draw and one product per 4096-path block."""
    factor = process._factor(covariance_matrix(grid, params))
    want = np.zeros((n_paths, len(grid)))
    for b, lo in enumerate(range(0, n_paths, 4096)):
        hi = min(lo + 4096, n_paths)
        z = block_rng(seed, b).standard_normal((hi - lo, len(grid) - 1))
        want[lo:hi, 1:] = z @ factor.T
    return want


def _sample_and_compare(grid, params, seed, want):
    # runs in a forked child, which exits non-zero if the assertion fails
    assert np.array_equal(sample_msfbm(grid, params, len(want), seed).paths, want)


times_st = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestCovariances:
    def test_sfbm_examples(self):
        assert sfbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-14)
        # direct arithmetic of the covariance expression
        direct = 1.0 + 2.0 ** 1.4 - 0.5 * (3.0 ** 1.4 + 1.0)
        assert sfbm_covariance(1.0, 2.0, 0.7) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(0.81124746, abs=1e-8)
        assert sfbm_covariance(1.0, 1.0, 0.9) == pytest.approx(
            2.0 - 2.0 ** 0.8, rel=1e-14)

    @given(s=times_st, t=times_st)
    @settings(max_examples=200, deadline=None)
    def test_sfbm_brownian_limit(self, s, t):
        assert sfbm_covariance(s, t, 0.5) == pytest.approx(min(s, t), abs=1e-10)

    @given(s=times_st, t=times_st,
           h=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, deadline=None)
    def test_sfbm_symmetry(self, s, t, h):
        assert sfbm_covariance(s, t, h) == sfbm_covariance(t, s, h)

    def test_sfbm_domain(self):
        for h in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                sfbm_covariance(1.0, 2.0, h)

    @pytest.mark.parametrize("s,t", [(math.nan, 1.0), (1.0, math.inf),
                                     (-1.0, 1.0)])
    def test_bad_times_rejected(self, s, t):
        # NaN and inf would come back as a NaN covariance
        with pytest.raises(DomainError, match="times must be finite and >= 0"):
            sfbm_covariance(s, t, 0.7)
        with pytest.raises(DomainError, match="times must be finite and >= 0"):
            msfbm_covariance(t, s, MixedDriverParams(hurst=0.7))

    @pytest.mark.parametrize("params", [
        MixedDriverParams(hurst=0.7, beta=1.0, gamma=0.0),
        MixedDriverParams(hurst=0.6, beta=1.0, gamma=1.0),
        MixedDriverParams(hurst=0.9, beta=0.3, gamma=1.7),
        MixedDriverParams(hurst=0.3, beta=0.0, gamma=1.0),
    ])
    def test_broadcast_as_scalar_calls(self, params):
        ts = np.array([0.0, 0.013, 0.5, 1.0, 1.7, 4.2])
        s_m, t_m = np.meshgrid(ts, ts, indexing="ij")
        mixed = msfbm_covariance(s_m, t_m, params)
        sub = sfbm_covariance(s_m, t_m, params.hurst)
        assert mixed.shape == sub.shape == s_m.shape
        for i, s in enumerate(ts.tolist()):
            # a float against an array broadcasts too
            assert msfbm_covariance(s, ts, params).tolist() == mixed[i].tolist()
            for j, t in enumerate(ts.tolist()):
                one, part = msfbm_covariance(s, t, params), sfbm_covariance(
                    s, t, params.hurst)
                assert type(one) is float and type(part) is float
                assert one == mixed[i, j] and part == sub[i, j]  # bit for bit

    def test_matrix_is_the_covariance_on_the_meshgrid(self):
        params = MixedDriverParams(hurst=0.65, beta=0.8, gamma=1.2)
        grid = TimeGrid([0.0, 0.1, 0.25, 0.6, 1.0, 3.0])
        ts = grid.as_array()[1:]
        cov = covariance_matrix(grid, params)
        np.testing.assert_array_equal(
            cov, msfbm_covariance(*np.meshgrid(ts, ts, indexing="ij"), params))
        assert cov.tolist() == [[msfbm_covariance(s, t, params) for t in ts.tolist()]
                                for s in ts.tolist()]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_array_time_check_rejects_any_bad_element(self, bad):
        times = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(DomainError, match=f"times must be finite and >= 0, got {bad!r}"):
            process._check_times(np.array([0.5]), times)
        with pytest.raises(DomainError, match="times must be finite and >= 0"):
            msfbm_covariance(times, 1.0, MixedDriverParams(hurst=0.7))
        assert [t.tolist() for t in process._check_times(0.5, times[:2])] == \
            [[0.5], [0.0, 1.0]]

    def test_msfbm_examples(self):
        pure_bm = MixedDriverParams(hurst=0.7, beta=1.0, gamma=0.0)
        assert msfbm_covariance(1.0, 2.0, pure_bm) == 1.0
        mixed = MixedDriverParams(hurst=0.7, beta=1.0, gamma=1.0)
        expected = 1.0 + sfbm_covariance(1.0, 2.0, 0.7)
        assert msfbm_covariance(1.0, 2.0, mixed) == pytest.approx(expected,
                                                                  rel=1e-14)
        assert msfbm_covariance(0.0, 5.0, mixed) == 0.0

    def test_params_validation(self):
        with pytest.raises(DomainError):
            MixedDriverParams(hurst=0.7, beta=0.0, gamma=0.0)
        with pytest.raises(DomainError):
            MixedDriverParams(hurst=0.7, beta=-1.0)
        with pytest.raises(DomainError):
            MixedDriverParams(hurst=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["hurst", "beta", "gamma"])
    def test_non_finite_params_rejected(self, field, bad):
        values = {"hurst": 0.7, "beta": 1.0, "gamma": 1.0, field: bad}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            MixedDriverParams(**values)


class TestIncrements:
    def test_brownian_increments_independent(self):
        p = MixedDriverParams(hurst=0.5, beta=1.3, gamma=0.4)
        assert increment_covariance(0.0, 1.0, 1.0, 2.0, p) == pytest.approx(
            0.0, abs=1e-12)

    def test_sign_by_hurst(self):
        pos = MixedDriverParams(hurst=0.7, beta=0.0, gamma=1.0)
        neg = MixedDriverParams(hurst=0.3, beta=0.0, gamma=1.0)
        assert increment_covariance(0.0, 1.0, 1.0, 2.0, pos) > 0.0
        assert increment_covariance(0.0, 1.0, 2.0, 3.0, neg) < 0.0

    @given(u=st.floats(min_value=0.0, max_value=5.0),
           d1=st.floats(min_value=1e-3, max_value=5.0),
           d2=st.floats(min_value=0.0, max_value=5.0),
           d3=st.floats(min_value=1e-3, max_value=5.0),
           h=st.floats(min_value=0.05, max_value=0.95),
           beta=st.floats(min_value=0.0, max_value=2.0),
           gamma=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_bilinear_expansion(self, u, d1, d2, d3, h,
                                                    beta, gamma):
        v, s, t = u + d1, u + d1 + d2, u + d1 + d2 + d3
        p = MixedDriverParams(hurst=h, beta=beta, gamma=gamma)
        closed = increment_covariance(u, v, s, t, p)
        expanded = (msfbm_covariance(v, t, p) - msfbm_covariance(v, s, p)
                    - msfbm_covariance(u, t, p) + msfbm_covariance(u, s, p))
        assert closed == pytest.approx(expanded, abs=1e-12 * max(1.0, t ** 2))

    def test_ordering_gate(self):
        p = MixedDriverParams(hurst=0.7)
        with pytest.raises(DomainError):
            increment_covariance(0.0, 2.0, 1.0, 3.0, p)

    def test_variance_examples(self):
        p = MixedDriverParams(hurst=0.7, beta=0.0, gamma=1.0)
        t = 1.7
        expected = (2.0 - 2.0 ** 0.4) * t ** 1.4
        assert increment_variance(0.0, t, p) == pytest.approx(expected, rel=1e-14)
        bm = MixedDriverParams(hurst=0.5, beta=1.0, gamma=0.0)
        assert increment_variance(1.0, 2.0, bm) == pytest.approx(1.0, rel=1e-14)

    def test_non_stationarity(self):
        p = MixedDriverParams(hurst=0.7, beta=0.0, gamma=1.0)
        assert increment_variance(1.0, 2.0, p) != pytest.approx(
            increment_variance(2.0, 3.0, p), rel=1e-6)

    @given(s=st.floats(min_value=0.0, max_value=10.0),
           d=st.floats(min_value=1e-3, max_value=10.0),
           h=st.floats(min_value=0.05, max_value=0.95),
           beta=st.floats(min_value=0.0, max_value=2.0),
           gamma=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=150, deadline=None)
    def test_variance_matches_bilinear_expansion(self, s, d, h, beta, gamma):
        t = s + d
        p = MixedDriverParams(hurst=h, beta=beta, gamma=gamma)
        expanded = (msfbm_covariance(t, t, p) + msfbm_covariance(s, s, p)
                    - 2.0 * msfbm_covariance(s, t, p))
        assert increment_variance(s, t, p) == pytest.approx(
            expanded, abs=1e-11 * max(1.0, t ** 2))

    def test_variance_positive_and_gate(self):
        p = MixedDriverParams(hurst=0.6)
        assert increment_variance(0.3, 0.9, p) > 0.0
        with pytest.raises(DomainError):
            increment_variance(2.0, 1.0, p)


class TestCovarianceMatrix:
    @pytest.mark.parametrize("hurst", [0.55, 0.7, 0.9])
    def test_positive_semidefinite_random_grids(self, hurst):
        rng = np.random.default_rng(5)
        for _ in range(10):
            times = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 5.0, 12))))
            if np.min(np.diff(times)) < 1e-6:
                continue
            grid = TimeGrid(times)
            p = MixedDriverParams(hurst=hurst, beta=rng.uniform(0, 1.5),
                                  gamma=rng.uniform(0.1, 1.5))
            cov = covariance_matrix(grid, p)
            vals = np.linalg.eigvalsh(cov)
            assert vals.min() >= -1e-10 * max(vals.max(), 1e-30)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            TimeGrid([0.0])
        with pytest.raises(DomainError):
            TimeGrid([0.5, 1.0])
        with pytest.raises(DomainError):
            TimeGrid([0.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            TimeGrid([0.0, 1.0, 1.0 + 1e-14])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        # named as what it is, not as a too-close pair of times
        with pytest.raises(DomainError, match=f"finite and >= 0, got {bad}"):
            TimeGrid([0.0, 1.0, bad])
        with pytest.raises(DomainError, match="finite"):
            TimeGrid([0.0, bad])

    def test_basic(self):
        g = TimeGrid([0, 0.5, 1])
        assert len(g) == 3
        assert g.as_array().tolist() == [0.0, 0.5, 1.0]


class TestSampling:
    def test_determinism(self):
        g = TimeGrid([0.0, 0.5, 1.0])
        p = MixedDriverParams(hurst=0.7)
        a = sample_msfbm(g, p, 1000, seed=123)
        b = sample_msfbm(g, p, 1000, seed=123)
        assert np.array_equal(a.paths, b.paths)
        c = sample_msfbm(g, p, 1000, seed=124)
        assert not np.array_equal(a.paths, c.paths)

    def test_block_substreams_are_stable_under_batch_size(self):
        # the first block must not depend on how many paths follow it
        g = TimeGrid([0.0, 1.0])
        p = MixedDriverParams(hurst=0.6)
        small = sample_msfbm(g, p, 4096, seed=9)
        large = sample_msfbm(g, p, 10000, seed=9)
        assert np.array_equal(small.paths, large.paths[:4096])

    @pytest.mark.parametrize("n_paths", [1, 4096, 16_461, 10 * 4096 + 2622])
    @pytest.mark.parametrize("intervals", [10, 20, 64, 100])
    def test_blocks_match_fresh_draws_bit_for_bit(self, intervals, n_paths,
                                                  monkeypatch):
        # each block, drawn serially or (more than four blocks on two
        # cores, up to 64 intervals) on the pool in row chunks, gives the
        # paths of a fresh normal draw and one product per block, a
        # partial last block included
        monkeypatch.setattr(process, "_usable_cores", lambda: 2)
        g = TimeGrid(np.linspace(0.0, 2.0, intervals + 1))
        p = MixedDriverParams(hurst=0.75)
        assert np.array_equal(sample_msfbm(g, p, n_paths, seed=5).paths,
                              _block_reference(g, p, n_paths, seed=5))

    def test_threads_sampling_at_once_get_the_reference_bits(self, monkeypatch):
        monkeypatch.setattr(process, "_usable_cores", lambda: 2)
        g = TimeGrid(np.linspace(0.0, 2.0, 21))
        p = MixedDriverParams(hurst=0.75)
        want = _block_reference(g, p, 9 * 4096 + 3, seed=8)
        start = threading.Barrier(2)
        got = [None, None]

        def sample(k):
            start.wait(timeout=30)
            got[k] = sample_msfbm(g, p, len(want), seed=8).paths

        threads = [threading.Thread(target=sample, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(paths, want) for paths in got)

    def test_forked_child_samples_the_parents_bits(self, monkeypatch):
        # the child inherits a pool whose threads it does not have
        monkeypatch.setattr(process, "_usable_cores", lambda: 2)
        g = TimeGrid(np.linspace(0.0, 2.0, 11))
        p = MixedDriverParams(hurst=0.75)
        want = sample_msfbm(g, p, 8 * 4096, seed=6).paths
        child = multiprocessing.get_context("fork").Process(
            target=_sample_and_compare, args=(g, p, 6, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung while sampling")
        assert child.exitcode == 0

    def test_paths_start_at_zero(self):
        g = TimeGrid([0.0, 0.3, 0.8])
        p = MixedDriverParams(hurst=0.8)
        batch = sample_msfbm(g, p, 50, seed=1)
        assert np.all(batch.paths[:, 0] == 0.0)

    def test_brownian_variance(self):
        g = TimeGrid([0.0, 1.0])
        p = MixedDriverParams(hurst=0.5, beta=1.0, gamma=0.0)
        batch = sample_msfbm(g, p, 200_000, seed=7)
        var = batch.paths[:, 1].var()
        se = math.sqrt(2.0 / 200_000)  # var of sample variance of N(0,1)
        assert abs(var - 1.0) <= 3.0 * se

    def test_subfractional_cross_covariance(self):
        g = TimeGrid([0.0, 1.0, 2.0])
        p = MixedDriverParams(hurst=0.7, beta=0.0, gamma=1.0)
        n = 200_000
        batch = sample_msfbm(g, p, n, seed=11)
        m1, m2 = batch.paths[:, 1], batch.paths[:, 2]
        sample_cov = float(np.mean(m1 * m2))
        c12 = msfbm_covariance(1.0, 2.0, p)
        c11 = msfbm_covariance(1.0, 1.0, p)
        c22 = msfbm_covariance(2.0, 2.0, p)
        se = math.sqrt((c12 ** 2 + c11 * c22) / n)
        assert abs(sample_cov - c12) <= 3.0 * se

    def test_seed_domain(self):
        g = TimeGrid([0.0, 1.0])
        p = MixedDriverParams(hurst=0.7)
        for seed in (-1, 2 ** 64):
            with pytest.raises(DomainError, match="unsigned 64-bit"):
                sample_msfbm(g, p, 10, seed=seed)
        with pytest.raises(DomainError):
            sample_msfbm(g, p, 0, seed=1)


class TestPathBatchCsv:
    def test_header_and_roundtrip(self):
        g = TimeGrid([0.0, 0.5, 1.0])
        p = MixedDriverParams(hurst=0.7)
        batch = sample_msfbm(g, p, 5, seed=3)
        buf = io.StringIO()
        batch.to_csv(buf)
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "t_0,t_1,t_2"
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.allclose(data, batch.paths, rtol=0, atol=0)

    def test_shape_validation(self):
        g = TimeGrid([0.0, 1.0])
        with pytest.raises(DomainError):
            PathBatch(grid=g, paths=np.zeros((3, 5)), seed=0)
