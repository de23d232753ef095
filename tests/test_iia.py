"""IIA specification tests and the in-package chi-square tail."""

import numpy as np
import pytest
import scipy.special

from semilogit import iia
from semilogit import (
    ConfigError,
    Dataset,
    DGPSpec,
    chi_square_upper_tail,
    hausman_mcfadden,
    iia_all_permutations,
    regularized_gamma_p,
    simulate,
    small_hsiao,
)


def iia_dgp(seed, n=800, K=4):
    return DGPSpec(
        n_categories=K, n=n, seed=seed,
        beta=np.linspace(-0.5, 0.5, (K - 1) * 2).reshape(K - 1, 2),
        smooth=tuple({"kind": "zero"} for _ in range(K - 1)),
        x_laws=({"kind": "normal"}, {"kind": "bernoulli", "p": 0.5}),
        t_laws=())


def count_fits(monkeypatch, when=lambda data: True, **options):
    """Record the K of every fit the IIA module makes; ``options`` go to
    each fit whose dataset passes ``when``."""
    calls, fit = [], iia.fit_parametric

    def counted(data, **kw):
        calls.append(data.n_categories)
        return fit(data, **kw, **(options if when(data) else {}))
    monkeypatch.setattr(iia, "fit_parametric", counted)
    return calls


def entry(res):
    return res.statistic, res.df, res.p_value, res.dropped_category, res.method, res.note


class TestChiSquareTail:
    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            df = int(rng.integers(1, 51))
            stat = float(rng.uniform(0.0, 200.0))
            mine = chi_square_upper_tail(stat, df)
            ref = float(scipy.special.gammaincc(df / 2.0, stat / 2.0))
            assert abs(mine - ref) < 1e-10

    def test_gamma_p_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = float(rng.uniform(0.5, 25.0))
            x = float(rng.uniform(0.0, 100.0))
            assert abs(regularized_gamma_p(a, x)
                       - float(scipy.special.gammainc(a, x))) < 1e-12

    def test_known_quantiles(self):
        assert chi_square_upper_tail(3.84, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi_square_upper_tail(5.99, 2) == pytest.approx(0.05, abs=1e-3)

    def test_monotone_in_statistic(self):
        stats = np.linspace(0.1, 40.0, 60)
        for df in (1, 3, 10):
            p = [chi_square_upper_tail(s, df) for s in stats]
            assert np.all(np.diff(p) < 0)

    def test_nonpositive_statistic_gives_one(self):
        assert chi_square_upper_tail(0.0, 3) == 1.0
        assert chi_square_upper_tail(-2.5, 3) == 1.0

    def test_bad_df(self):
        with pytest.raises(ConfigError):
            chi_square_upper_tail(1.0, 0)


class TestHausmanMcFadden:
    def test_zero_difference_degenerate_construction(self):
        # comparing a fit against itself: d = 0 forces statistic 0, p = 1
        from semilogit import fit_parametric
        data = simulate(iia_dgp(3))
        sub = data.subset(data.y != 1)
        remap = np.searchsorted([2, 3, 4], sub.y) + 1
        shrunk = Dataset(y=remap, x=sub.x, t=sub.t, n_categories=3)
        fit = fit_parametric(shrunk)
        d = fit.coefficients.ravel() - fit.coefficients.ravel()
        statistic = float(d @ np.linalg.pinv(fit.vcov) @ d)
        assert statistic == 0.0
        assert chi_square_upper_tail(statistic, d.size) == 1.0

    def test_p_value_in_unit_interval(self):
        data = simulate(iia_dgp(4))
        for drop in (1, 2, 3):
            res = hausman_mcfadden(data, drop=drop)
            assert 0.0 <= res.p_value <= 1.0
            # two shared non-reference categories x (intercept + 2 terms)
            assert res.df == 2 * 3

    def test_negative_statistic_reported_with_note(self):
        # scan seeds for the known finite-sample pathology
        found = False
        for seed in range(40):
            data = simulate(iia_dgp(seed, n=300))
            res = hausman_mcfadden(data, drop=1)
            if res.statistic < 0:
                found = True
                assert "negative statistic" in res.note
                assert res.p_value == 1.0
                break
        assert found, "no negative Hausman statistic in 40 seeds"

    def test_cannot_drop_reference(self):
        data = simulate(iia_dgp(5))
        with pytest.raises(ConfigError):
            hausman_mcfadden(data, drop=4)

    def test_needs_three_categories(self):
        spec = DGPSpec(n_categories=2, n=200, seed=6, beta=[[0.4]],
                       smooth=({"kind": "zero"},), x_laws=({"kind": "normal"},),
                       t_laws=())
        with pytest.raises(ConfigError):
            hausman_mcfadden(simulate(spec), drop=1)


class TestSmallHsiao:
    def test_seed_reproducibility(self):
        data = simulate(iia_dgp(7))
        a = small_hsiao(data, drop=1, seed=123)
        b = small_hsiao(data, drop=1, seed=123)
        assert a.statistic == b.statistic and a.p_value == b.p_value

    def test_different_seeds_split_differently(self):
        data = simulate(iia_dgp(8))
        a = small_hsiao(data, drop=1, seed=1)
        b = small_hsiao(data, drop=1, seed=2)
        assert a.statistic != b.statistic

    def test_statistic_nonnegative(self):
        data = simulate(iia_dgp(9))
        for drop in (1, 2, 3):
            res = small_hsiao(data, drop=drop, seed=11)
            assert res.statistic >= 0.0
            assert res.df == 2 * 3


class TestAllPermutations:
    def test_counts_and_distinct_drops(self, monkeypatch):
        spec = DGPSpec(n_categories=5, n=1500, seed=10,
                       beta=np.linspace(-0.5, 0.5, 8).reshape(4, 2),
                       smooth=tuple({"kind": "zero"} for _ in range(4)),
                       x_laws=({"kind": "normal"},
                               {"kind": "bernoulli", "p": 0.5}),
                       t_laws=())
        data = simulate(spec)
        calls = count_fits(monkeypatch)
        results = iia_all_permutations(data, "HausmanMcFadden", seed=0)
        assert len(results) == 4
        assert sorted(r.dropped_category for r in results) == [1, 2, 3, 4]
        assert calls == [5] + [4] * 4     # one full fit, one restricted per drop

    def test_deterministic_given_seed(self):
        data = simulate(iia_dgp(11))
        r1 = iia_all_permutations(data, "SmallHsiao", seed=42)
        r2 = iia_all_permutations(data, "SmallHsiao", seed=42)
        assert [r.statistic for r in r1] == [r.statistic for r in r2]

    def test_individual_failures_recorded(self):
        # category 3 has only a handful of rows: half-splits lose it and
        # the Small-Hsiao entries should fail gracefully
        rng = np.random.default_rng(12)
        y = np.concatenate([np.full(60, 1), np.full(60, 2), [3],
                            np.full(60, 4)])
        data = Dataset(y=y, x=rng.normal(size=(len(y), 1)),
                       t=np.zeros((len(y), 0)), n_categories=4)
        results = iia_all_permutations(data, "SmallHsiao", seed=1)
        assert len(results) == 3
        for r in results:
            with pytest.raises(Exception) as err:
                small_hsiao(data, r.dropped_category, seed=1)
            assert r.note == f"failed: {err.value}"
            assert np.isnan(r.statistic) and r.df == 0


class TestSharedFits:
    def test_one_shared_fit_per_batch(self, monkeypatch):
        data = simulate(iia_dgp(13))
        calls = count_fits(monkeypatch)
        iia_all_permutations(data, "HausmanMcFadden", seed=3)
        assert calls == [4, 3, 3, 3]
        calls.clear()
        iia_all_permutations(data, "SmallHsiao", seed=3)
        assert calls == [4, 4, 3, 3, 3]

    @pytest.mark.parametrize("reference", [None, 2])
    def test_entries_equal_single_drop_calls(self, reference):
        data = simulate(iia_dgp(14, n=1000))
        singles = {
            "HausmanMcFadden": lambda d: hausman_mcfadden(data, d, reference=reference),
            "SmallHsiao": lambda d: small_hsiao(data, d, 5, reference=reference)}
        for method, single in singles.items():
            for res in iia_all_permutations(data, method, seed=5, reference=reference):
                assert entry(res) == entry(single(res.dropped_category))

    def test_failed_shared_fit_fails_every_entry(self, monkeypatch):
        # collinear x: the full-sample fit is not identified
        rng = np.random.default_rng(15)
        x = rng.normal(size=(400, 1))
        data = Dataset(y=rng.integers(1, 5, size=400), x=np.hstack([x, 2.0 * x]),
                       t=np.zeros((400, 0)), n_categories=4)
        with pytest.raises(Exception) as err:
            hausman_mcfadden(data, 1)
        results = iia_all_permutations(data, "HausmanMcFadden")
        assert [r.note for r in results] == [f"failed: {err.value}"] * 3

    def test_drop_checked_before_any_fit(self, monkeypatch):
        calls = count_fits(monkeypatch)
        data = simulate(iia_dgp(16))
        for run in (lambda: hausman_mcfadden(data, drop=4),
                    lambda: small_hsiao(data, drop=5, seed=1)):
            with pytest.raises(ConfigError):
                run()
        small = data.subset(data.y <= 2)
        two = Dataset(y=small.y, x=small.x, t=small.t, n_categories=2)
        results = iia_all_permutations(two, "SmallHsiao")
        assert [r.note for r in results] == ["failed: IIA tests need at least 3 categories"]
        assert calls == []


class TestUnconvergedNote:
    def test_every_unconverged_fit_is_named(self, monkeypatch):
        data = simulate(iia_dgp(17))
        count_fits(monkeypatch, max_iter=1)
        for res in iia_all_permutations(data, "HausmanMcFadden"):
            assert res.note.endswith("full fit did not converge; "
                                     "restricted fit did not converge")
            assert np.isfinite(res.statistic)
        for res in iia_all_permutations(data, "SmallHsiao", seed=2):
            assert res.note == ("half-sample A fit did not converge; half-sample B fit "
                                "did not converge; restricted fit did not converge")
            assert np.isfinite(res.statistic) and res.statistic != 0.0

    def test_only_the_unconverged_fit_is_named(self, monkeypatch):
        data = simulate(iia_dgp(18))
        count_fits(monkeypatch, when=lambda d: d.n_categories == 3, max_iter=1)
        for method in ("HausmanMcFadden", "SmallHsiao"):
            for res in iia_all_permutations(data, method, seed=6):
                assert res.note.endswith("restricted fit did not converge")
                assert res.note.count("did not converge") == 1

    def test_converged_fits_add_no_note(self):
        data = simulate(iia_dgp(19))
        allowed = {"", "negative statistic (finite-sample pathology)",
                   "covariance difference not positive definite; generalized inverse used",
                   "covariance difference not positive definite; generalized inverse "
                   "used; negative statistic (finite-sample pathology)"}
        for method in ("HausmanMcFadden", "SmallHsiao"):
            for res in iia_all_permutations(data, method, seed=4):
                assert res.note in allowed


class TestReferenceInvariance:
    # Switching between kept reference categories maps the shared
    # coefficients by an invertible linear map, and both likelihoods
    # depend only on differences, so neither statistic may move.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_statistics_do_not_depend_on_reference(self, seed):
        data = simulate(iia_dgp(seed, n=1500))
        for drop in (1, 3):
            for run in (lambda **kw: hausman_mcfadden(data, drop, **kw),
                        lambda **kw: small_hsiao(data, drop, seed, **kw)):
                at_2, at_4 = run(reference=2), run(reference=4)
                assert at_2.df == at_4.df
                assert at_2.statistic == pytest.approx(at_4.statistic, rel=1e-8)
