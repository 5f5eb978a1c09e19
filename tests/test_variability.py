"""Unit tests for the traffic variability model (Figure 15 input)."""

import numpy as np
import pytest

from repro.traffic import TrafficMatrix, TrafficVariabilityModel


class TestConstruction:
    def test_edges_probs_length_mismatch(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel([0.0, 1.0], [0.5, 0.5])

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel([0.0, 1.0, 0.5], [0.5, 0.5])

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel([0.0, 1.0, 2.0], [0.3, 0.3])

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel([-1.0, 0.0, 1.0], [0.5, 0.5])


class TestDefaultModel:
    @pytest.mark.parametrize("sigma", [0.1, 0.45, 0.8, 1.5])
    def test_closed_form_cdf_matches_scipy(self, sigma):
        # The default model evaluates the lognormal CDF with
        # math.erfc; scipy's lognorm agrees within one ulp of 1.0.
        from scipy import stats

        model = TrafficVariabilityModel.default(sigma=sigma)
        mu = -sigma * sigma / 2.0
        reference = np.diff(stats.lognorm.cdf(
            model.bucket_edges, s=sigma, scale=np.exp(mu)))
        reference /= reference.sum()
        assert np.abs(model.bucket_probs - reference).max() <= \
            np.spacing(1.0)

    def test_mean_factor_near_one(self):
        model = TrafficVariabilityModel.default()
        assert model.mean_factor == pytest.approx(1.0, abs=0.1)

    def test_sampled_factors_positive(self):
        model = TrafficVariabilityModel.default()
        rng = np.random.default_rng(0)
        factors = [model.sample_factor(rng) for _ in range(500)]
        assert all(f > 0 for f in factors)

    def test_sampled_mean_near_one(self):
        model = TrafficVariabilityModel.default()
        rng = np.random.default_rng(1)
        factors = [model.sample_factor(rng) for _ in range(4000)]
        assert np.mean(factors) == pytest.approx(1.0, abs=0.08)

    def test_heavy_tail_exists(self):
        model = TrafficVariabilityModel.default()
        rng = np.random.default_rng(2)
        factors = [model.sample_factor(rng) for _ in range(4000)]
        assert max(factors) > 2.0
        assert min(factors) < 0.5

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel.default(sigma=0.0)


class TestFromSamples:
    def test_reproduces_sample_range(self):
        samples = [0.5, 0.8, 1.0, 1.2, 2.0]
        model = TrafficVariabilityModel.from_samples(samples)
        rng = np.random.default_rng(3)
        factors = [model.sample_factor(rng) for _ in range(1000)]
        assert min(factors) >= 0.49
        assert max(factors) <= 2.01

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel.from_samples([1.0])

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            TrafficVariabilityModel.from_samples([-0.5, 1.0])

    def test_constant_samples_handled(self):
        model = TrafficVariabilityModel.from_samples([1.0, 1.0, 1.0])
        rng = np.random.default_rng(4)
        assert model.sample_factor(rng) == pytest.approx(1.0, abs=0.02)


def _scalar_factor(model, rng):
    """The pick-then-place draw ``draw`` replaces: one bucket by mass,
    then a uniform factor within it (the test oracle)."""
    bucket = rng.choice(len(model.bucket_probs), p=model.bucket_probs)
    return float(rng.uniform(model.bucket_edges[bucket],
                             model.bucket_edges[bucket + 1]))


class TestDraw:
    MODELS = {
        "default": TrafficVariabilityModel.default(),
        "narrow": TrafficVariabilityModel.default(sigma=0.1,
                                                  num_buckets=4),
        "from_samples": TrafficVariabilityModel.from_samples(
            np.random.default_rng(9).lognormal(0.0, 0.5, 300)),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("size", [0, 1, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 23, 104729])
    def test_draw_is_the_scalar_loop_bit_for_bit(self, name, size,
                                                 seed):
        model = self.MODELS[name]
        scalar_rng = np.random.default_rng(seed)
        expected = [_scalar_factor(model, scalar_rng)
                    for _ in range(size)]
        rng = np.random.default_rng(seed)
        drawn = model.draw(rng, size)
        assert drawn.shape == (size,)
        assert [value.hex() for value in drawn.tolist()] == \
            [value.hex() for value in expected]
        # Both consumed the same stream: the next draw agrees too.
        assert rng.random() == scalar_rng.random()

    def test_scalar_and_keyed_forms_are_draw(self):
        model = self.MODELS["default"]
        pairs = [("A", "B"), ("B", "C"), ("C", "A")]
        expected = model.draw(np.random.default_rng(3), 4).tolist()
        rng = np.random.default_rng(3)
        assert model.sample_factor(rng) == expected[0]
        assert model.sample_factors(pairs, rng) == dict(
            zip(pairs, expected[1:]))


class TestMatrixGeneration:
    def test_generate_count(self):
        model = TrafficVariabilityModel.default()
        mean = TrafficMatrix({("A", "B"): 100.0, ("B", "C"): 50.0})
        rng = np.random.default_rng(5)
        matrices = model.generate_matrices(mean, 10, rng)
        assert len(matrices) == 10

    def test_generated_matrices_vary(self):
        model = TrafficVariabilityModel.default()
        mean = TrafficMatrix({("A", "B"): 100.0})
        rng = np.random.default_rng(6)
        volumes = {m.volume("A", "B")
                   for m in model.generate_matrices(mean, 20, rng)}
        assert len(volumes) > 10

    def test_mean_preserved_in_expectation(self):
        model = TrafficVariabilityModel.default()
        mean = TrafficMatrix({("A", "B"): 100.0})
        rng = np.random.default_rng(7)
        matrices = model.generate_matrices(mean, 500, rng)
        avg = np.mean([m.volume("A", "B") for m in matrices])
        assert avg == pytest.approx(100.0, rel=0.12)

    def test_count_must_be_positive(self):
        model = TrafficVariabilityModel.default()
        mean = TrafficMatrix({("A", "B"): 1.0})
        with pytest.raises(ValueError):
            model.generate_matrices(mean, 0, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        model = TrafficVariabilityModel.default()
        mean = TrafficMatrix({("A", "B"): 100.0, ("C", "D"): 10.0})
        a = model.generate_matrices(mean, 3, np.random.default_rng(8))
        b = model.generate_matrices(mean, 3, np.random.default_rng(8))
        for ma, mb in zip(a, b):
            assert ma.volume("A", "B") == mb.volume("A", "B")
            assert ma.volume("C", "D") == mb.volume("C", "D")
