import dataclasses
import io
import json
import logging
import math
import random

import numpy as np
import pytest
from scipy import optimize
from scipy.special import logit

from msfcev import calibrate as cal
from msfcev.errors import CalibrationError, ChainFormatError, DomainError
from msfcev.pricing import MODEL_NAMES, ModelSpec, _clock, chain_prices

VALID_CSV = """quote_date,spot,rate,strike,maturity_years,mid_price
2024-01-02,100,0.05,95,0.5,7.12
2024-01-02,100,0.05,100,0.5,3.85
2024-01-02,100,0.05,105,0.5,1.77
"""


class TestLoadChain:
    def test_round_trip(self):
        chain = cal.load_chain(io.StringIO(VALID_CSV))
        assert len(chain.quotes) == 3
        assert chain.quote_date == "2024-01-02"
        assert chain.spot == 100.0
        assert chain.quotes[1].mid_price == 3.85

    def test_write_then_read(self, tmp_path, small_chain):
        path = tmp_path / "chain.csv"
        cal.write_chain_csv(small_chain, str(path))
        for source in (str(path), path):  # a str and a pathlib.Path
            again = cal.load_chain(source)
            assert len(again.quotes) == len(small_chain.quotes)
            assert again.quotes[0].strike == pytest.approx(
                sorted(q.strike for q in small_chain.quotes
                       if q.maturity == small_chain.quotes[0].maturity)[0])

    def test_bad_header(self):
        with pytest.raises(ChainFormatError, match="header"):
            cal.load_chain(io.StringIO("a,b,c\n1,2,3\n"))

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        with open("data/sample_chain.csv", encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + text, encoding="utf-8")
        plain = cal.load_chain("data/sample_chain.csv")
        for source in (path, io.StringIO("\ufeff" + text)):
            chain = cal.load_chain(source)
            assert chain == plain
        cfg = cal.OptimizerConfig(seed=42)
        assert cal.fit(chain, "msfcev", "joint", cfg).to_json() == \
            cal.fit(plain, "msfcev", "joint", cfg).to_json()

    def test_empty_file(self):
        with pytest.raises(ChainFormatError):
            cal.load_chain(io.StringIO(""))

    def test_nonpositive_strike_rejected_with_row(self):
        bad = VALID_CSV + "2024-01-02,100,0.05,-5,0.5,1.0\n"
        with pytest.raises(ChainFormatError, match="row 5"):
            cal.load_chain(io.StringIO(bad))

    def test_malformed_field_rejected_with_row(self):
        bad = VALID_CSV + "2024-01-02,100,0.05,xyz,0.5,1.0\n"
        with pytest.raises(ChainFormatError, match="row 5"):
            cal.load_chain(io.StringIO(bad))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["spot", "rate", "strike",
                                       "maturity_years", "mid_price"])
    def test_non_finite_field_rejected_with_row(self, field, bad):
        row = dict(zip(cal.CHAIN_HEADER,
                       ["2024-01-02", "100", "0.05", "110", "0.5", "0.9"]))
        row[field] = bad
        text = VALID_CSV + ",".join(row[h] for h in cal.CHAIN_HEADER) + "\n"
        with pytest.raises(ChainFormatError,
                           match=f"row 5: {field} must be finite"):
            cal.load_chain(io.StringIO(text))

    def test_moneyness_filter(self):
        rows = VALID_CSV + "2024-01-02,100,0.05,90,0.5,11.3\n"
        unfiltered = cal.load_chain(io.StringIO(rows))
        assert len(unfiltered.quotes) == 4
        filtered = cal.load_chain(io.StringIO(rows), moneyness_filter=True)
        assert len(filtered.quotes) == 3
        assert all(q.strike >= 95.0 for q in filtered.quotes)
        # 95 = 0.95 * spot stays in (at most 5% in the money)
        assert any(q.strike == 95.0 for q in filtered.quotes)

    def test_inconsistent_spot(self):
        bad = VALID_CSV + "2024-01-02,101,0.05,100,0.5,1.0\n"
        with pytest.raises(ChainFormatError, match="spot"):
            cal.load_chain(io.StringIO(bad))

    def test_sample_chain_file_parses(self):
        chain = cal.load_chain("data/sample_chain.csv")
        assert len(chain.quotes) == 50
        assert cal._quote_arrays(chain.quotes).keys() == [
            "0.250000", "0.500000", "1.000000", "1.500000", "2.000000"]


class TestObjective:
    """The MSE a fit minimizes, as the sum of squares of _Problem's residuals."""

    @staticmethod
    def residuals(chain, values):
        names = cal.free_parameters("msfcev")
        problem = cal._Problem("msfcev", names, cal._quote_arrays(chain.quotes))
        return problem(problem.coordinates(values))

    def test_zero_at_generating_parameters(self, msfcev_chain):
        res = self.residuals(msfcev_chain, [0.3, 1.2, 0.75])
        assert res.size == len(msfcev_chain.quotes)
        assert np.all(res == 0.0)

    def test_perturbed_sigma_positive(self, msfcev_chain):
        assert np.sum(self.residuals(msfcev_chain, [0.33, 1.2, 0.75]) ** 2) > 0.0

    def test_reorder_invariance(self, msfcev_chain, quick_optimizer):
        quotes = list(msfcev_chain.quotes)
        random.Random(4).shuffle(quotes)
        shuffled = cal.OptionChain(quote_date=msfcev_chain.quote_date,
                                   quotes=tuple(quotes))
        assert cal.fit(shuffled, "msfcev", "joint", quick_optimizer) == \
            cal.fit(msfcev_chain, "msfcev", "joint", quick_optimizer)

    def test_free_parameters_catalog(self):
        assert cal.free_parameters("bs") == ("sigma",)
        assert cal.free_parameters("msfbs") == ("sigma", "hurst")
        assert cal.free_parameters("cev") == ("sigma", "alpha")
        assert cal.free_parameters("msfcev") == ("sigma", "alpha", "hurst")
        with pytest.raises(DomainError):
            cal.free_parameters("heston")


# quotes that break load_chain's invariants, with the start of the error
_BAD_QUOTES = ([("strike", v, "strikes must be positive") for v in
                (math.nan, math.inf, 0.0, -5.0)]
               + [("maturity", v, "maturity must be positive") for v in
                  (math.nan, math.inf, 0.0)]
               + [("rate", v, "rate must be >= 0") for v in
                  (math.nan, math.inf, -0.01)]
               + [("mid_price", v, "mid price must be positive") for v in
                  (math.nan, math.inf, 0.0, -1.0)])


@pytest.mark.parametrize("name,params", [("msfbs", [0.2, 0.75]),
                                         ("cev", [0.3, 1.2])])
@pytest.mark.parametrize("field,value,message", _BAD_QUOTES)
def test_bad_quote_rejected_where_it_enters(small_chain, quick_optimizer, name,
                                            params, field, value, message):
    """fit and compare_models check a hand-built chain's quotes."""
    quotes = list(small_chain.quotes)
    quotes[3] = dataclasses.replace(quotes[3], **{field: value})
    chain = cal.OptionChain(quote_date=small_chain.quote_date,
                            quotes=tuple(quotes))
    for mode in ("joint", "per_maturity"):
        with pytest.raises(DomainError, match=message):
            cal.fit(chain, name, mode, quick_optimizer)
    (row,) = cal.compare_models(chain, [name], "joint", quick_optimizer)
    assert row.failed and row.error.startswith(message)


def _noisy_msfcev_chain(env):
    model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
    return cal.synthetic_chain(model, env, (0.5, 1.0, 2.0), n_strikes=6,
                               noise=0.05, seed=42)


class TestFit:
    def test_recovery_small_chain(self, small_chain, quick_optimizer):
        # price-vector recovery; (sigma, alpha, hurst) are only weakly
        # identified by two maturities, so parameters are not asserted here
        report = cal.fit(small_chain, "msfcev", "joint", quick_optimizer)
        assert report.total_mse <= 1e-8
        assert report.converged

    def test_reproducible_bit_for_bit(self, small_chain, quick_optimizer):
        a = cal.fit(small_chain, "msfcev", "joint", quick_optimizer)
        b = cal.fit(small_chain, "msfcev", "joint", quick_optimizer)
        assert a == b

    def test_parameters_within_bounds(self, small_chain):
        for seed in (0, 1):
            cfg = cal.OptimizerConfig(n_starts=2, seed=seed, maxiter=60,
                                      polish_maxiter=60)
            report = cal.fit(small_chain, "msfcev", "joint", cfg)
            for name, value in report.fitted["joint"].items():
                lo, hi = cal.PARAM_BOUNDS[name]
                assert lo <= value <= hi

    def test_per_maturity_beats_joint_on_noisy_chain(self, env100,
                                                     quick_optimizer):
        chain = _noisy_msfcev_chain(env100)
        joint = cal.fit(chain, "cev", "joint", quick_optimizer)
        per = cal.fit(chain, "cev", "per_maturity", quick_optimizer)
        assert per.total_mse <= joint.total_mse * (1.0 + 1e-9) + 1e-12
        assert set(per.mse_per_maturity) == {"0.500000", "1.000000", "2.000000"}

    def test_optimum_on_box_edge_reached(self, env100, quick_optimizer):
        """The cev MSE of this chain keeps falling as alpha nears 1.999, its box edge.

        There dp/du of the logistic coordinate vanishes, so a solve can stop
        short of the edge while reporting convergence.  0.0103160409429 is
        the MSE at alpha 1.999 with sigma re-fitted.
        """
        report = cal.fit(_noisy_msfcev_chain(env100), "cev", "joint", quick_optimizer)
        assert report.fitted["joint"]["alpha"] == pytest.approx(1.999, abs=1e-7)
        assert report.total_mse == pytest.approx(0.0103160409429, rel=1e-9, abs=0.0)

    def test_per_maturity_skips_thin_groups(self, env100, quick_optimizer):
        model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        chain = cal.synthetic_chain(model, env100, (0.5, 1.0), n_strikes=4)
        lonely = cal.MarketQuote(strike=100.0, maturity=3.0, mid_price=5.0,
                                 spot=100.0, rate=0.05)
        padded = cal.OptionChain(quote_date=chain.quote_date,
                                 quotes=chain.quotes + (lonely,))
        with pytest.warns(RuntimeWarning, match="fewer than two"):
            report = cal.fit(padded, "cev", "per_maturity", quick_optimizer)
        assert "3.000000" not in report.mse_per_maturity

    def test_sample_chain_recovery(self):
        """Eight starts: the clock start and seven random points.

        The objective has a second, true local minimum at sigma 2.76, alpha
        0.788, H 0.854 (MSE 2.7e-4), where a single start from the first
        random point of seed 7 or 42 ends; the clock start alone finds the
        generating parameters (test_one_start_sample_chain_recovery).
        """
        chain = cal.load_chain("data/sample_chain.csv")
        report = cal.fit(chain, "msfcev", "joint",
                         cal.OptimizerConfig(n_starts=8, seed=42))
        fitted = report.fitted["joint"]
        assert fitted["sigma"] == pytest.approx(2.5, abs=1e-6)
        assert fitted["alpha"] == pytest.approx(0.8, abs=1e-6)
        assert fitted["hurst"] == pytest.approx(0.75, abs=1e-6)
        assert report.converged
        # where the same fit ended when every Jacobian column was a scipy
        # 2-point difference
        assert fitted["sigma"] == pytest.approx(2.5000000298114533, rel=1e-8)
        assert fitted["alpha"] == pytest.approx(0.7999999955765418, rel=1e-8)
        assert fitted["hurst"] == pytest.approx(0.7500000030512445, rel=1e-8)

    @pytest.mark.parametrize("seed", [7, 42])
    def test_one_start_sample_chain_recovery(self, seed):
        # the default config: the clock start alone
        chain = cal.load_chain("data/sample_chain.csv")
        report = cal.fit(chain, "msfcev", "joint", cal.OptimizerConfig(seed=seed))
        fitted = report.fitted["joint"]
        assert fitted["sigma"] == pytest.approx(2.5, abs=1e-6)
        assert fitted["alpha"] == pytest.approx(0.8, abs=1e-6)
        assert fitted["hurst"] == pytest.approx(0.75, abs=1e-6)
        assert report.converged

    @pytest.mark.parametrize("seed", [1, 2, 12, 16])
    @pytest.mark.parametrize("name,values,rel", [
        ("msfcev", {"sigma": 2.5, "alpha": 0.8, "hurst": 0.75}, 1e-8),
        ("msfcev", {"sigma": 1.0, "alpha": 1.5, "hurst": 0.9}, 1e-8),
        # alpha's standard error is about 0.12 here; TRF stops a solve when
        # a step lowers the cost by less than its ftol, 1e-8 relative, so
        # on this flat valley one solve ends up to 5e-8 above the minimum
        # that the best of eight reaches
        ("msfcev", {"sigma": 0.3, "alpha": 1.2, "hurst": 0.75}, 1e-7),
        ("msfbs", {"sigma": 0.2, "hurst": 0.9}, 1e-8),
        ("msfbs", {"sigma": 0.3, "hurst": 0.6}, 1e-8),
    ])
    def test_one_start_reaches_eight_start_minimum(self, env100, name, values,
                                                    rel, seed):
        model = ModelSpec.make(name, **values)
        chain = cal.synthetic_chain(model, env100, (0.25, 0.5, 1.0, 2.0),
                                    n_strikes=6, noise=0.02, seed=seed)
        one = cal.fit(chain, name, "joint", cal.OptimizerConfig(seed=seed))
        eight = cal.fit(chain, name, "joint",
                        cal.OptimizerConfig(n_starts=8, seed=seed))
        assert one.total_mse <= eight.total_mse * (1.0 + rel)

    @pytest.mark.parametrize("seed", [0, 7, 42, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_starts_are_seeded_points_of_the_box(self, dim, n, seed):
        def starts(seed):
            rng = np.random.default_rng(seed)
            return np.array([cal._random_start(rng, dim) for _ in range(n)])

        points = starts(seed)
        assert points.shape == (n, dim)
        assert np.all((points >= logit(0.02)) & (points < logit(0.98)))
        assert np.array_equal(points, starts(seed))
        assert not np.array_equal(points[0], starts(seed ^ 1)[0])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(DomainError, match="unsigned 64-bit integer"):
            cal.OptimizerConfig(seed=seed)

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_n_starts_below_one_rejected(self, n_starts):
        with pytest.raises(DomainError, match="n_starts"):
            cal.OptimizerConfig(n_starts=n_starts)
        # no upper limit: starts are drawn one at a time, never built up front
        assert cal.OptimizerConfig(n_starts=2 ** 30 + 1).n_starts == 2 ** 30 + 1

    @pytest.mark.parametrize("field", ["maxiter", "polish_maxiter"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_budget_below_one_rejected(self, field, value):
        # refused where it enters, before any fit runs
        with pytest.raises(DomainError, match=f"{field} must be at least 1"):
            cal.OptimizerConfig(**{field: value})
        assert getattr(cal.OptimizerConfig(**{field: 1}), field) == 1

    def test_exhausted_budget_not_converged(self, small_chain):
        # the path behind the calibrate command's exit code 2
        cfg = cal.OptimizerConfig(n_starts=1, seed=0, maxiter=2,
                                  polish_maxiter=2)
        report = cal.fit(small_chain, "msfcev", "joint", cfg)
        assert report.converged is False

    def test_starts_outside_domain_skipped(self, small_chain, monkeypatch,
                                           caplog):
        def reject(*args):
            raise DomainError("outside the pricing domain")

        monkeypatch.setattr(cal, "_prices_at_clock", reject)  # every stage
        cfg = cal.OptimizerConfig(n_starts=3, seed=0)
        with caplog.at_level(logging.WARNING, logger=cal.log.name):
            with pytest.raises(CalibrationError):
                cal.fit(small_chain, "cev", "joint", cfg)
        assert len(caplog.records) == 3  # one warning per skipped start
        assert "clock start" in caplog.records[0].getMessage()
        assert "random start" in caplog.records[1].getMessage()

    # stage 1 fails where it maps its vector to clocks, stage 2 where it
    # reads the parameters off them; the later stages price as before
    @pytest.mark.parametrize("stage", ["_ClockProblem._at", "_clock_parameters"])
    def test_clock_start_that_raises_skipped(self, small_chain, monkeypatch,
                                             caplog, stage):
        def reject(*args):
            raise DomainError("outside the pricing domain")

        monkeypatch.setattr(f"{cal.__name__}.{stage}", reject)
        cfg = cal.OptimizerConfig(n_starts=2, seed=0)
        with caplog.at_level(logging.WARNING, logger=cal.log.name):
            report = cal.fit(small_chain, "msfcev", "joint", cfg)
        assert len(caplog.records) == 1
        assert "clock start" in caplog.records[0].getMessage()
        # the random start still fits
        assert report.total_mse <= 1e-8
        with caplog.at_level(logging.WARNING, logger=cal.log.name):
            with pytest.raises(CalibrationError):
                cal.fit(small_chain, "msfcev", "joint", cal.OptimizerConfig())
        assert len(caplog.records) == 2

    @pytest.mark.parametrize("name", ["msfcev", "mfcev"])
    def test_clock_start_on_quotes_insensitive_to_their_clocks(self, name):
        # deep in-the-money quotes at their intrinsic value: stage 1 ends
        # where every clock column of its Jacobian is 0, so the groups have
        # no weights and stage 2 falls back to equal ones
        quotes = tuple(cal.MarketQuote(strike=k, maturity=t, spot=100.0, rate=0.05,
                                       mid_price=100.0 - k * math.exp(-0.05 * t))
                       for t in (0.5, 1.0) for k in (20.0, 30.0))
        report = cal.fit(cal.OptionChain("2024-01-02", quotes), name, "joint")
        assert report.converged
        assert report.total_mse <= 1e-20

    def test_classical_clock_start_weights_its_clocks(self, env100, monkeypatch):
        # cev clocks off an msfcev chain follow no one sigma, so the weighted
        # and the plain mean of stage 2 give different starts
        model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.9)
        chain = cal.synthetic_chain(model, env100, (0.25, 1.0, 3.0), n_strikes=6)
        seen = {}
        stage_two, solve = cal._clock_parameters, cal._trf

        def spy_stage_two(names, stage1, v, weights=None):
            seen["weights"], seen["plain"] = weights, stage_two(names, stage1, v)
            seen["weighted"] = stage_two(names, stage1, v, weights)
            return seen["weighted"]

        def spy_solve(target, x0, max_nfev):
            if isinstance(target, cal._Problem):
                seen.setdefault("start", target.params(x0))
            return solve(target, x0, max_nfev)

        monkeypatch.setattr(cal, "_clock_parameters", spy_stage_two)
        monkeypatch.setattr(cal, "_trf", spy_solve)
        cal.fit(chain, "cev", "joint")
        assert np.ptp(seen["weights"]) > 0.0  # unequal weights reach stage 2
        assert abs(seen["weighted"][0] / seen["plain"][0] - 1.0) > 1e-3
        # the joint solve starts from the weighted sigma (after the logistic
        # round trip)
        assert seen["start"] == pytest.approx(seen["weighted"], rel=1e-12)

    def test_invalid_mode(self, small_chain):
        with pytest.raises(DomainError):
            cal.fit(small_chain, "msfcev", "weekly")

    def test_report_json_schema(self, small_chain, quick_optimizer):
        report = cal.fit(small_chain, "cev", "joint", quick_optimizer)
        data = json.loads(report.to_json())
        assert set(data) == {"mode", "fitted", "mse_per_maturity", "total_mse",
                             "iterations", "converged", "evaluations",
                             "stderr", "jac_cond"}
        assert data["mode"] == "joint"
        assert set(data["fitted"]["joint"]) == {"sigma", "alpha"}
        assert set(data["stderr"]["joint"]) == {"sigma", "alpha"}
        assert set(data["jac_cond"]) == {"joint"}

    @pytest.mark.parametrize("mode", ["joint", "per_maturity"])
    def test_close_maturities_form_one_group(self, small_chain,
                                             quick_optimizer, mode):
        # 0.5000001 rounds to 0.5 at 6 decimals: one group, one key
        moved = tuple(dataclasses.replace(q, maturity=0.5000001)
                      if q.maturity == 0.5 and q.strike > 102.0 else q
                      for q in small_chain.quotes)
        assert {q.maturity for q in moved} == {0.5, 0.5000001, 1.0}
        chain = cal.OptionChain(quote_date=small_chain.quote_date, quotes=moved)
        report = cal.fit(chain, "cev", mode, quick_optimizer)
        assert list(report.mse_per_maturity) == ["0.500000", "1.000000"]
        if mode == "per_maturity":
            assert list(report.fitted) == ["0.500000", "1.000000"]
            # the group is fitted as one chain: all five of its quotes
            alone = cal.OptionChain(
                quote_date=chain.quote_date,
                quotes=tuple(q for q in moved if q.maturity < 0.6))
            assert cal.fit(alone, "cev", "joint", quick_optimizer).total_mse == \
                report.mse_per_maturity["0.500000"]
        else:
            assert list(report.fitted) == ["joint"]

    def test_shuffled_chain_same_per_maturity_report(self, msfcev_chain,
                                                     quick_optimizer):
        quotes = list(msfcev_chain.quotes)
        random.Random(11).shuffle(quotes)
        shuffled = cal.OptionChain(quote_date=msfcev_chain.quote_date,
                                   quotes=tuple(quotes))
        base = cal.fit(msfcev_chain, "msfcev", "per_maturity", quick_optimizer)
        again = cal.fit(shuffled, "msfcev", "per_maturity", quick_optimizer)
        assert again.to_json() == base.to_json()
        assert list(again.fitted) == list(base.fitted)

    def test_total_mse_is_quote_weighted_mean(self, env100, quick_optimizer):
        model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        chain = cal.synthetic_chain(model, env100, (0.5, 1.0), n_strikes=5,
                                    noise=0.05, seed=3)
        report = cal.fit(chain, "bs", "joint", quick_optimizer)
        counts = {}
        for q in chain.quotes:
            counts[f"{q.maturity:.6f}"] = counts.get(f"{q.maturity:.6f}", 0) + 1
        recombined = sum(report.mse_per_maturity[k] * counts[k]
                         for k in counts) / sum(counts.values())
        assert report.total_mse == pytest.approx(recombined, rel=1e-12)


def _clock_case(name, values, maturities, rate=0.05):
    """Stage 1's problem and its exact solution for a model's clocks."""
    n = len(maturities)
    quotes = cal._Quotes(spot=100.0, maturities=np.repeat(maturities, 2),
                         rates=np.full(2 * n, rate),
                         strikes=np.tile([90.0, 110.0], n), mids=np.ones(2 * n),
                         starts=np.arange(0, 2 * n, 2))
    stage1 = cal._ClockProblem(name, quotes)
    v = []
    if stage1.cev:
        lo, hi = cal.PARAM_BOUNDS["alpha"]
        v.append(logit((values["alpha"] - lo) / (hi - lo)))
        values = dict(values, alpha=stage1.alpha(v))  # after the round trip
    clocks = _clock(cal.build_model(name, values), stage1.rates, stage1.maturities)
    return stage1, np.concatenate((v, np.log(clocks))), values


class TestClockStart:
    @pytest.mark.parametrize("hurst", [0.55, 0.68, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("name,values,maturities,rate", [
        # bimodal: the profile has a second minimum near H 0.68 at H 0.9
        ("msfbs", {"sigma": 0.2}, (0.25, 1.0, 2.0), 0.05),
        ("mfbs", {"sigma": 0.3}, (0.25, 1.0, 2.0), 0.0),
        ("msfcev", {"sigma": 2.5, "alpha": 0.8}, (0.25, 0.5, 1.0, 1.5, 2.0), 0.05),
        ("mfcev", {"sigma": 0.3, "alpha": 1.5}, (0.25, 1.0, 2.0), 0.0),
    ])
    def test_stage_two_recovers_exact_clocks_without_pricing(
            self, monkeypatch, name, values, maturities, rate, hurst):
        def no_pricing(*args):
            raise AssertionError("stage 2 priced")

        for fn in ("_prices_at_clock", "_clock_slope"):  # calibrate's pricing calls
            monkeypatch.setattr(cal, fn, no_pricing)
        stage1, v, values = _clock_case(name, dict(values, hurst=hurst),
                                        maturities, rate)
        names = cal.free_parameters(name)
        got = cal._clock_parameters(names, stage1, v)
        want = np.array([values[n] for n in names])
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("name,values", [
        ("bs", {"sigma": 0.3}), ("cev", {"sigma": 0.3, "alpha": 1.2})])
    def test_stage_two_classical_sigma(self, name, values):
        stage1, v, values = _clock_case(name, values, (0.25, 1.0, 2.0))
        names = cal.free_parameters(name)
        got = cal._clock_parameters(names, stage1, v)
        assert got == pytest.approx([values[n] for n in names], rel=1e-14)

    def test_one_maturity_holds_hurst_at_box_middle(self):
        stage1, v, _ = _clock_case("msfcev", {"sigma": 2.5, "alpha": 0.8,
                                              "hurst": 0.9}, (1.0,))
        names = cal.free_parameters("msfcev")
        got = dict(zip(names, cal._clock_parameters(names, stage1, v)))
        assert got["hurst"] == sum(cal.PARAM_BOUNDS["hurst"]) / 2.0
        # sigma reproduces the one clock at that H
        model = cal.build_model("msfcev", got)
        assert _clock(model, stage1.rates, stage1.maturities) == \
            pytest.approx(np.exp(v[1:]), rel=1e-12)

    @pytest.mark.parametrize("name", ["bs", "msfbs", "cev", "msfcev"])
    def test_stage_one_solves_clocks(self, name, msfcev_chain):
        # a chain priced by the model itself: one clock per maturity fits
        # it exactly, with alpha at the generating value
        values = {"sigma": 2.5 if "cev" in name else 0.2, "alpha": 0.8,
                  "hurst": 0.75}
        model = cal.build_model(name, values)
        quotes = cal._quote_arrays(msfcev_chain.quotes)
        quotes = cal._Quotes(quotes.spot, quotes.maturities, quotes.rates,
                             quotes.strikes,
                             chain_prices(model, quotes.spot, quotes.maturities,
                                          quotes.rates, quotes.strikes),
                             quotes.starts)
        stage1 = cal._ClockProblem(name, quotes)
        solved = optimize.least_squares(stage1, stage1.start(),
                                        jac=_jac_of_point(stage1), method="trf")
        assert 2.0 * solved.cost <= 1e-20
        clocks = _clock(model, stage1.rates, stage1.maturities)
        assert np.exp(solved.x[int(stage1.cev):]) == pytest.approx(clocks, rel=1e-6)
        if stage1.cev:
            assert stage1.alpha(solved.x) == pytest.approx(0.8, abs=1e-6)


def _jac_of_point(target):
    """``target.jac`` as scipy calls a Jacobian: of the point alone."""
    return lambda x: target.jac(x, target(x))


def _quotes_at(rate):
    """Three maturities x strikes 80 (deep in the money), 100 and 120."""
    return cal._Quotes(spot=100.0, maturities=np.repeat([0.25, 1.0, 2.0], 3),
                       rates=np.full(9, rate),
                       strikes=np.tile([80.0, 100.0, 120.0], 3),
                       mids=np.zeros(9), starts=np.array([0, 3, 6]))


def _jacobian_cases():
    sample = cal._quote_arrays(cal.load_chain("data/sample_chain.csv").quotes)
    for name in MODEL_NAMES:
        cev = "cev" in name
        yield (name, {"sigma": 2.5 if cev else 0.25, "alpha": 0.8,
                      "hurst": 0.75}, sample)
        for alpha in ((0.2, 1.5, 1.9) if cev else (2.0,)):
            for rate in (0.0, 0.05):
                # about 25% lognormal volatility at the spot, inside the box
                sigma = min(0.25 * 100.0 ** (1.0 - 0.5 * alpha), 4.5)
                yield (name, {"sigma": sigma, "alpha": alpha, "hurst": 0.75},
                       _quotes_at(rate))
    # a point a fit reached, where the density's Bessel argument passes 2^30
    yield ("msfcev", {"sigma": 0.0481, "alpha": 1.9989, "hurst": 0.808},
           _quotes_at(0.05))


class TestJacobian:
    @pytest.mark.parametrize("name,values,quotes", list(_jacobian_cases()))
    def test_matches_central_differences(self, name, values, quotes):
        names = cal.free_parameters(name)
        problem = cal._Problem(name, names, quotes)
        lo, hi = cal._box(names)
        u = logit((np.array([values[n] for n in names]) - lo) / (hi - lo))
        base = problem(u)
        jac = problem.jac(u, base)
        for j, param in enumerate(names):
            if param == "alpha":
                # the 2-point forward difference from base, bit for bit; its
                # rounding noise, a few 1e-6 of the column maximum, keeps it
                # from meeting the analytic columns' bound
                shifted = u.copy()
                shifted[j] += (math.sqrt(np.finfo(float).eps) * max(1.0, abs(u[j]))
                               * (1.0 if u[j] >= 0.0 else -1.0))
                forward = (problem(shifted) - base) / (shifted[j] - u[j])
                assert np.array_equal(jac[:, j], forward)
                continue
            up, down = u.copy(), u.copy()
            up[j] += 1e-4
            down[j] -= 1e-4
            central = (problem(up) - problem(down)) / 2e-4
            err = np.max(np.abs(jac[:, j] - central)) / np.max(np.abs(central))
            assert err <= 1e-6, param

    def test_alpha_column_prices_only_its_step(self, small_chain):
        names = cal.free_parameters("msfcev")
        problem = cal._Problem("msfcev", names,
                               cal._quote_arrays(small_chain.quotes))
        u = np.array([0.1, -0.3, 0.2])
        problem.jac(u, problem(u))
        assert problem.evaluations == 2  # the base point and the alpha step

    @pytest.mark.parametrize("name", ["bs", "mfbs", "msfbs"])
    def test_bs_family_prices_no_jacobian_column(self, small_chain,
                                                 quick_optimizer, name):
        report = cal.fit(small_chain, name, "joint", quick_optimizer)
        assert report.evaluations == report.iterations

    def test_cev_family_counts_alpha_columns(self, small_chain,
                                             quick_optimizer):
        report = cal.fit(small_chain, "msfcev", "joint", quick_optimizer)
        assert report.evaluations > report.iterations


def _solver_target(name, stage, env):
    """A fresh stage-1 or joint problem of a noisy chain, and a start for it."""
    quotes = cal._quote_arrays(_noisy_msfcev_chain(env).quotes)
    if stage == "clock":
        target = cal._ClockProblem(name, quotes)
        return target, target.start()
    names = cal.free_parameters(name)
    values = {"sigma": 0.2 if "cev" in name else 0.4, "alpha": 1.5, "hurst": 0.6}
    target = cal._Problem(name, names, quotes)
    return target, target.coordinates([values[n] for n in names])


class TestSolver:
    """_trf ends no higher than scipy's least_squares, in about as many evaluations."""

    @pytest.mark.parametrize("max_nfev", [400, 2])
    @pytest.mark.parametrize("name", ["msfcev", "msfbs"])
    @pytest.mark.parametrize("stage", ["clock", "joint"])
    def test_trf_reaches_scipy_least_squares_cost(self, env100, stage, name,
                                                  max_nfev):
        # max_nfev=2 stops on the budget after the first step
        target, u0 = _solver_target(name, stage, env100)
        ours = cal._trf(target, u0, max_nfev)
        theirs = optimize.least_squares(target, u0, jac=_jac_of_point(target),
                                        method="trf", max_nfev=max_nfev)
        assert ours.converged == (theirs.status > 0) == (max_nfev == 400)
        assert abs(ours.nfev - theirs.nfev) <= 2
        # the SVDs differ in their last bits, so the steps do too; at the
        # minimum the ends differ by up to 1.1e-8 relative (the msfcev clock
        # stage's flat valley)
        assert ours.cost <= theirs.cost * (1.0 + 1e-7)

    def test_trf_refuses_non_finite_start(self):
        class Target:
            def __call__(self, x):
                return np.array([math.nan, x[0]])

            def jac(self, x, f):
                return np.ones((2, 1))

        with pytest.raises(ValueError, match="not finite in the initial point"):
            cal._trf(Target(), np.array([1.0]), 10)


class TestUncertainty:
    def test_one_parameter_standard_error(self, env100, quick_optimizer):
        # bs has one parameter: stderr^2 = MSE n / (n - 1) / sum (dC/dsigma)^2
        model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        chain = cal.synthetic_chain(model, env100, (0.5, 1.0), n_strikes=5,
                                    noise=0.05, seed=3)
        report = cal.fit(chain, "bs", "joint", quick_optimizer)
        sigma = report.fitted["joint"]["sigma"]
        quotes = cal._quote_arrays(chain.quotes)
        step = 1e-6 * sigma

        def prices(s):
            return chain_prices(cal.build_model("bs", {"sigma": s}), quotes.spot,
                                quotes.maturities, quotes.rates, quotes.strikes)

        slope = (prices(sigma + step) - prices(sigma - step)) / (2.0 * step)
        n = quotes.mids.size
        want = math.sqrt(report.total_mse * n / (n - 1) / np.sum(slope ** 2))
        assert report.stderr["joint"]["sigma"] == pytest.approx(want, rel=1e-6)
        assert report.jac_cond == {"joint": 1.0}

    def test_keyed_like_fitted_per_maturity(self, msfcev_chain,
                                            quick_optimizer):
        report = cal.fit(msfcev_chain, "cev", "per_maturity", quick_optimizer)
        assert set(report.stderr) == set(report.fitted)
        assert set(report.jac_cond) == set(report.fitted)
        for key, values in report.stderr.items():
            assert set(values) == {"sigma", "alpha"}
            assert all(v >= 0.0 for v in values.values())
            assert report.jac_cond[key] >= 1.0

    def test_undefined_without_spare_quotes(self, quick_optimizer):
        quote = cal.MarketQuote(strike=100.0, maturity=1.0, mid_price=8.0,
                                spot=100.0, rate=0.05)
        chain = cal.OptionChain(quote_date="2024-01-02", quotes=(quote,))
        report = cal.fit(chain, "bs", "joint", quick_optimizer)
        assert report.stderr == {"joint": None}
        assert json.loads(report.to_json())["stderr"] == {"joint": None}


class TestCompareModels:
    def test_recovery_ordering(self, env100, quick_optimizer):
        model = ModelSpec.make("cev", sigma=0.3, alpha=1.2)
        chain = cal.synthetic_chain(model, env100, (0.5, 1.0, 2.0), n_strikes=6)
        rows = cal.compare_models(chain, ["bs", "cev"], "joint",
                                  quick_optimizer)
        by_name = {r.model: r for r in rows}
        assert not by_name["cev"].failed
        assert by_name["cev"].total_mse < by_name["bs"].total_mse

    def test_single_quote_chain_degenerate_but_well_formed(self, env100,
                                                           quick_optimizer):
        quote = cal.MarketQuote(strike=100.0, maturity=1.0, mid_price=8.0,
                                spot=100.0, rate=0.05)
        chain = cal.OptionChain(quote_date="2024-01-02", quotes=(quote,))
        rows = cal.compare_models(chain, ["bs", "cev"], "joint",
                                  quick_optimizer)
        assert all(not r.failed for r in rows)
        assert all(r.total_mse <= 1e-10 for r in rows)
        json.loads(cal.comparison_to_json(rows))

    def test_empty_catalog(self, small_chain):
        with pytest.raises(DomainError):
            cal.compare_models(small_chain, [])


class TestSyntheticChain:
    def test_moneyness_floor_and_positive_mids(self, env100):
        model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
        chain = cal.synthetic_chain(model, env100, (0.25, 2.0), noise=0.05,
                                    seed=11)
        assert all(q.strike >= 0.95 * 100.0 for q in chain.quotes)
        assert all(q.mid_price > 0.0 for q in chain.quotes)
