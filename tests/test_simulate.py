import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from shadowipw import simulate
from shadowipw.search import FOUND, NOT_FOUND, GraphOracleTester, \
    find_adjustment_set
from shadowipw.simulate import (ORACLE_ARM0, ORACLE_ARM1, ORACLE_COMPLETE,
                                DgpConfig, default_config, generate,
                                roles_for, scenario_graph, true_ace)

from oracles import same_columns

BAD_SIZES = [0, -5, 2.0, True, "10"]


class TestDefaultConfig:
    def test_documented_constants(self):
        cfg = default_config()
        assert cfg.sigma[0][0] == 1.2
        assert cfg.sigma == ((1.2, 0.0, 0.0, 0.0), (0.0, 1.0, 0.4, 0.4),
                             (0.0, 0.4, 1.0, 0.3), (0.0, 0.4, 0.3, 1.0))
        assert cfg.coef_a == (0.52, 2.0, 2.0, 2.0, 2.0)
        assert cfg.coef_y == (3.0, 2.0, 2.0, 2.0)
        assert cfg.coef_r_ref == (1.0, 1.0, 1.0, 0.5)
        assert cfg.gamma_true == -1.5
        assert cfg.incentive_variance == 2.0
        assert cfg.prob_clip == (0.01, 0.99)

    def test_overrides_and_hashability(self):
        cfg = default_config(n=50, seed=9)
        assert cfg.n == 50
        assert hash(cfg) == hash(default_config(n=50, seed=9))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            default_config(scenario="nope")

    def test_unknown_scenario_has_no_graph(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            scenario_graph("nope")

    def test_inverted_probability_clip_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid probability clip (0.5, 0.2)")):
            DgpConfig(prob_clip=(0.5, 0.2))

    @pytest.mark.parametrize("n", BAD_SIZES)
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            generate(default_config(n=n))

    def test_numpy_integer_size_accepted(self):
        assert generate(default_config(n=np.int64(3))).n_rows == 3

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, "3", None],
                             ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to draw seed 1's data, True seed 1's, "3" seed 3's
        with pytest.raises(ValueError) as raised:
            default_config(seed=seed)
        assert str(raised.value) == f"seed must be an integer, got {seed!r}"

    def test_numpy_integer_and_negative_seeds_accepted(self):
        assert same_columns(generate(default_config(n=50, seed=np.int64(7))),
                            generate(default_config(n=50, seed=7)))
        assert generate(default_config(n=50, seed=-2)).n_rows == 50

    def test_non_positive_definite_sigma_rejected(self):
        bad = ((1.0, 2.0, 0, 0), (2.0, 1.0, 0, 0),
               (0, 0, 1.0, 0), (0, 0, 0, 1.0))
        with pytest.raises(np.linalg.LinAlgError):
            generate(default_config(n=10, sigma=bad))


class TestGenerate:
    def test_covariate_covariance_converges(self):
        ds = generate(default_config(n=100_000, seed=1))
        W = np.column_stack([ds.column(f"W{i}") for i in (1, 2, 3, 4)])
        sample_cov = np.cov(W, rowvar=False)
        assert np.max(np.abs(sample_cov -
                             np.asarray(default_config().sigma))) < 0.03

    def test_response_rate_near_sixty_percent(self):
        ds = generate(default_config(n=100_000, seed=2))
        assert ds.column("R").mean() == pytest.approx(0.60, abs=0.05)

    def test_treatment_probability_at_origin(self):
        # shrink the covariates to zero: p(A=1) collapses to expit(0.52)
        tiny = tuple(tuple(1e-12 if i == j else 0.0 for j in range(4))
                     for i in range(4))
        cfg = default_config(n=200_000, seed=3, sigma=tiny)
        ds = generate(cfg)
        assert ds.column("A").mean() == pytest.approx(expit(0.52), abs=0.005)
        assert expit(0.52) == pytest.approx(0.6271, abs=5e-5)

    def test_reproducible_per_seed(self):
        a = generate(default_config(n=500, seed=42))
        b = generate(default_config(n=500, seed=42))
        assert same_columns(a, b)
        c = generate(default_config(n=500, seed=43))
        assert not same_columns(a, c)

    def test_scenario_toggles_preserve_shared_noise(self):
        base = generate(default_config(n=2000, seed=7))
        added = generate(default_config(n=2000, seed=7,
                                        scenario="add_a_to_ry"))
        hidden = generate(default_config(n=2000, seed=7,
                                         scenario="hide_w4"))
        for name in ("W1", "W2", "W3", "W4", "I", "A", ORACLE_COMPLETE):
            assert np.array_equal(base.column(name), added.column(name))
        for name in ("W1", "W2", "W3", "I", "A", ORACLE_COMPLETE):
            assert np.array_equal(base.column(name), hidden.column(name))
        assert "W4" not in hidden.names
        assert hidden.roles.covariates == ("W1", "W2", "W3")

    def test_consistency_between_outcome_and_response(self):
        ds = generate(default_config(n=5000, seed=8))
        y, r = ds.column("Y"), ds.column("R")
        complete = ds.column(ORACLE_COMPLETE)
        assert np.array_equal(np.isnan(y), r == 0.0)
        assert np.array_equal(y[r == 1.0], complete[r == 1.0])

    def test_oracle_columns_flagged(self):
        ds = generate(default_config(n=100, seed=1))
        assert ds.oracle_names == {ORACLE_COMPLETE, ORACLE_ARM1, ORACLE_ARM0}
        assert ORACLE_COMPLETE not in ds.roles.covariates


class TestTrueAce:
    def test_null_treatment_effect_gives_zero(self):
        cfg = default_config(coef_y=(0.0, 2.0, 2.0, 2.0))
        assert true_ace(cfg, n_oracle=200_000) == pytest.approx(0.0, abs=0.005)

    def test_cached_value_has_small_standard_error(self):
        cfg = default_config()
        value = true_ace(cfg, n_oracle=1_000_000)
        ds = generate(DgpConfig(n=1_000_000, seed=cfg.seed))
        diff = ds.column(ORACLE_ARM1) - ds.column(ORACLE_ARM0)
        se = diff.std() / np.sqrt(diff.size)
        assert se < 0.001
        assert value == diff.mean()

    @pytest.mark.parametrize("overrides", [
        {"seed": 0}, {"seed": 11}, {"seed": 2**64 + 3},
        {"seed": 5, "scenario": "add_a_to_ry"},
        {"seed": 6, "scenario": "hide_w4"},
        {"seed": 7, "prob_clip": (0.0, 1.0)},
        {"seed": 8, "gamma_true": 0.0},
        {"seed": 9, "coef_y": (0.0, 2.0, 2.0, 2.0)},
    ])
    def test_equals_the_mean_of_generated_arms(self, overrides):
        # the truth reads the base scenario at n_oracle rows, whatever the
        # config's own n and scenario
        cfg = default_config(n=37, **overrides)
        m = 20_000
        ds = generate(replace(cfg, n=m, scenario="base"))
        arms = np.mean(ds.column(ORACLE_ARM1) - ds.column(ORACLE_ARM0))
        assert true_ace(cfg, m) == arms

    def test_draws_only_the_covariate_and_outcome_streams(self, monkeypatch):
        streams, datasets = [], []
        rng, dataset = simulate._rng, simulate.Dataset

        def spy_rng(seed, stream):
            streams.append(stream)
            return rng(seed, stream)

        def spy_dataset(*args, **kwargs):
            datasets.append(args)
            return dataset(*args, **kwargs)

        monkeypatch.setattr(simulate, "_rng", spy_rng)
        monkeypatch.setattr(simulate, "Dataset", spy_dataset)
        cfg = default_config(seed=21)
        true_ace.__wrapped__(cfg, 1000)     # past the cache
        assert sorted(streams) == [simulate._STREAM_W, simulate._STREAM_Y]
        assert datasets == []
        # the spies see what generate draws and builds
        generate(replace(cfg, n=1000))
        assert sorted(streams[2:]) == [1, 2, 3, 4, 5]
        assert len(datasets) == 1

    @pytest.mark.parametrize("n_oracle", BAD_SIZES)
    def test_oracle_size_must_be_a_positive_integer(self, n_oracle):
        # a cached value for an equal size of another type does not answer
        cfg = default_config(seed=22)
        true_ace(cfg, 2)
        true_ace(cfg, 1)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            true_ace(cfg, n_oracle)

    def test_doubling_oracle_size_is_stable(self):
        cfg = default_config()
        v1 = true_ace(cfg, n_oracle=500_000)
        v2 = true_ace(cfg, n_oracle=1_000_000)
        assert abs(v1 - v2) < 0.002


class TestScenarioGraphs:
    def test_base_graph_certifies_the_documented_candidate(self):
        g = scenario_graph()
        roles = roles_for(default_config())
        assert not g.d_separated("I", "R")                       # C1
        assert g.d_separated("A", "I", ("Y", "R", "W2", "W3", "W4"))  # C2
        assert not g.d_separated("W1", "R", ("W2", "W3", "W4"))  # C3
        assert g.d_separated("W1", "R", ("A", "W2", "W3", "W4"))  # C4

    @pytest.mark.parametrize("scenario", ["add_a_to_ry", "hide_w4"])
    def test_negative_scenarios_admit_no_candidate(self, scenario):
        cfg = default_config(n=100, seed=0, scenario=scenario)
        ds = generate(cfg)
        tester = GraphOracleTester(scenario_graph(scenario), ds.roles)
        assert find_adjustment_set(ds, 0.05, tester=tester).status == NOT_FOUND

    def test_base_scenario_oracle_finds_candidate(self):
        ds = generate(default_config(n=100, seed=0))
        tester = GraphOracleTester(scenario_graph(), ds.roles)
        outcome = find_adjustment_set(ds, 0.05, tester=tester)
        assert outcome.status == FOUND
        assert tuple(sorted(outcome.adjustment_set)) == ("W2", "W3", "W4")
