"""Tests for the synthetic data generator and Zipf sampler."""

import numpy as np
import pytest

from repro.data.generator import (
    PAPER_CARDINALITIES,
    DatasetSpec,
    generate_dataset,
    paper_preset,
)
from repro.data.zipf import zipf_pmf, zipf_sample


class TestZipf:
    def test_pmf_sums_to_one(self):
        for card, alpha in [(10, 0.0), (100, 1.0), (5, 3.0)]:
            assert zipf_pmf(card, alpha).sum() == pytest.approx(1.0)

    def test_pmf_monotone_for_positive_alpha(self):
        pmf = zipf_pmf(20, 1.5)
        assert np.all(np.diff(pmf) < 0)

    def test_alpha_zero_uniform(self):
        pmf = zipf_pmf(8, 0.0)
        assert np.allclose(pmf, 1 / 8)

    def test_sample_range(self):
        rng = np.random.default_rng(0)
        s = zipf_sample(17, 2.0, 5000, rng)
        assert s.min() >= 0 and s.max() < 17
        assert s.dtype == np.int64

    def test_sample_skew_concentrates_mass(self):
        rng = np.random.default_rng(1)
        heavy = zipf_sample(100, 3.0, 10_000, rng)
        frac_zero = (heavy == 0).mean()
        assert frac_zero > 0.7  # alpha=3: rank-1 value dominates

    def test_sample_uniform_spreads_mass(self):
        rng = np.random.default_rng(2)
        flat = zipf_sample(100, 0.0, 10_000, rng)
        assert (flat == 0).mean() < 0.05

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_pmf(5, -1.0)
        with pytest.raises(ValueError):
            zipf_sample(5, 1.0, -1, rng)

    def test_zero_size(self):
        rng = np.random.default_rng(0)
        assert zipf_sample(5, 1.0, 0, rng).size == 0


class TestDatasetSpec:
    def test_valid(self):
        spec = DatasetSpec(100, (8, 4), (0.0, 1.0))
        assert spec.d == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DatasetSpec(10, (8, 4), (0.0,))

    def test_rejects_increasing_cardinalities(self):
        with pytest.raises(ValueError, match="non-increasing"):
            DatasetSpec(10, (4, 8), (0.0, 0.0))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DatasetSpec(-1, (4,), (0.0,))
        with pytest.raises(ValueError):
            DatasetSpec(10, (0,), (0.0,))
        with pytest.raises(ValueError):
            DatasetSpec(10, (4,), (-1.0,))


class TestGenerate:
    def test_shapes_and_ranges(self):
        spec = DatasetSpec(500, (8, 4, 2), (0.0, 1.0, 0.0), seed=3)
        rel = generate_dataset(spec)
        assert rel.nrows == 500 and rel.width == 3
        for col, card in enumerate(spec.cardinalities):
            assert rel.dims[:, col].min() >= 0
            assert rel.dims[:, col].max() < card

    def test_deterministic_under_seed(self):
        spec = DatasetSpec(100, (8, 4), (0.0, 0.0), seed=42)
        a, b = generate_dataset(spec), generate_dataset(spec)
        assert a.same_content(b)
        other = generate_dataset(
            DatasetSpec(100, (8, 4), (0.0, 0.0), seed=43)
        )
        assert not a.same_content(other)


class TestPaperPresets:
    def test_default_is_p8(self):
        spec = paper_preset(1000)
        assert spec.cardinalities == PAPER_CARDINALITIES
        assert spec.alphas == (0.0,) * 8

    def test_mixes(self):
        assert paper_preset(10, mix="A").cardinalities == (256,) * 8
        assert paper_preset(10, mix="C").cardinalities == (16,) * 8
        d = paper_preset(10, mix="D")
        assert d.alphas[0] == 3.0 and d.alphas[1] == 0.0

    def test_dim_override(self):
        spec = paper_preset(10, d=6)
        assert spec.d == 6
        assert spec.cardinalities == (256,) * 6

    def test_scalar_alpha_broadcast(self):
        spec = paper_preset(10, alpha=2.0)
        assert spec.alphas == (2.0,) * 8

    def test_alpha_vector(self):
        spec = paper_preset(10, alpha=[1.0] * 8)
        assert spec.alphas == (1.0,) * 8
        with pytest.raises(ValueError):
            paper_preset(10, alpha=[1.0, 2.0])

    def test_unknown_mix(self):
        with pytest.raises(ValueError):
            paper_preset(10, mix="Z")
