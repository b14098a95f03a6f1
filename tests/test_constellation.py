"""Constellation construction, Maxwell-Boltzmann shaping, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wiener_cpe import (
    Constellation,
    build_qam,
    entropy_bits,
    maxwell_boltzmann_shape,
    sample,
    shape_for_entropy,
)


class TestBuildQam:
    def test_qpsk_geometry(self, qpsk):
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
        for point in expected:
            assert np.min(np.abs(qpsk.points - point)) < 1e-12
        np.testing.assert_allclose(qpsk.probs, 0.25)

    def test_qam64_shape(self, qam64):
        assert qam64.num_points == 64
        assert qam64.bits_per_symbol == 6
        assert qam64.sym_order == 4
        energy = np.sum(qam64.probs * np.abs(qam64.points) ** 2)
        assert abs(energy - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [6, 8, 32, 128, 1024])
    def test_invalid_order_rejected(self, order):
        with pytest.raises(ValueError):
            build_qam(order)

    def test_gray_property_adjacent_points_differ_in_one_bit(self, qam64):
        # nearest horizontal/vertical neighbours of the unshaped lattice
        points = qam64.points
        labels = qam64.bit_labels.astype(int)
        spacing = np.min(np.abs(points[:, None] - points[None, :])[np.abs(points[:, None] - points[None, :]) > 0])
        for i in range(len(points)):
            for j in range(len(points)):
                delta = points[i] - points[j]
                if abs(abs(delta) - spacing) < 1e-9 and (
                    abs(delta.real) < 1e-9 or abs(delta.imag) < 1e-9
                ):
                    assert np.sum(labels[i] != labels[j]) == 1

    def test_labels_bijective(self, qam64):
        packed = qam64.bit_labels @ (1 << np.arange(5, -1, -1))
        assert len(set(packed.tolist())) == 64


class TestShaping:
    def test_lambda_zero_is_uniform(self, qam64):
        shaped = maxwell_boltzmann_shape(qam64, 0.0)
        np.testing.assert_allclose(shaped.probs, 1.0 / 64)
        assert abs(entropy_bits(shaped.probs) - 6.0) < 1e-12

    def test_entropy_target_hits_five_bits(self, qam64):
        shaped, lam = shape_for_entropy(qam64, 5.0)
        assert lam > 0
        # independent high-precision entropy evaluation
        import mpmath

        mpmath.mp.dps = 50
        h = -sum(mpmath.mpf(p) * mpmath.log(mpmath.mpf(p), 2) for p in shaped.probs)
        assert abs(float(h) - 5.0) < 1e-6

    def test_entropy_target_55(self, qam64):
        shaped, _ = shape_for_entropy(qam64, 5.5)
        assert abs(entropy_bits(shaped.probs) - 5.5) < 1e-6

    def test_large_lambda_concentrates_on_inner_ring(self, qam64):
        shaped = maxwell_boltzmann_shape(qam64, 10.0)
        inner = np.argsort(np.abs(shaped.points))[:4]
        assert shaped.probs[inner].sum() > 1.0 - 1e-10
        assert abs(entropy_bits(shaped.probs) - 2.0) < 1e-9

    def test_target_six_means_uniform(self, qam64):
        shaped, lam = shape_for_entropy(qam64, 6.0)
        assert lam == 0.0
        np.testing.assert_allclose(shaped.probs, 1.0 / 64)

    @pytest.mark.parametrize("target", [7.0, 1.5, -1.0])
    def test_target_out_of_range(self, qam64, target):
        with pytest.raises(ValueError):
            shape_for_entropy(qam64, target)

    def test_negative_lambda_rejected(self, qam64):
        with pytest.raises(ValueError):
            maxwell_boltzmann_shape(qam64, -0.1)

    @pytest.mark.parametrize("lam", [math.nan, 340.0, 345.0, 400.0, math.inf])
    def test_lambda_that_cannot_shape_rejected(self, qam64, lam):
        # the innermost weights are e^-2 lam; from about 330 on, the 1e-300
        # floor of the 60 outer weights adds more than 1e-12 of the mass
        # (3e-4 at 340, 0.87 at 345, where the entropy reads 5.96 bit), and
        # from about 345 on every weight is floored, which makes every point equal
        with pytest.raises(ValueError, match="shaping parameter"):
            maxwell_boltzmann_shape(qam64, lam)
        assert entropy_bits(maxwell_boltzmann_shape(qam64, 300.0).probs) == pytest.approx(2.0)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.05, 0.1, 0.5, 2.0])
    def test_shaping_preserves_invariants(self, qam64, lam):
        shaped = maxwell_boltzmann_shape(qam64, lam)  # __post_init__ validates
        assert abs(shaped.probs.sum() - 1.0) < 1e-12
        energy = np.sum(shaped.probs * np.abs(shaped.points) ** 2)
        assert abs(energy - 1.0) < 1e-12

    def test_entropy_nonincreasing_in_lambda(self, qam64):
        lams = np.linspace(0.0, 1.0, 21)
        entropies = [entropy_bits(maxwell_boltzmann_shape(qam64, lam).probs) for lam in lams]
        assert np.all(np.diff(entropies) <= 1e-12)

    def test_probs_respect_rotational_symmetry(self, shaped64):
        rotated = shaped64.points * np.exp(2j * np.pi / shaped64.sym_order)
        partner = np.argmin(np.abs(rotated[:, None] - shaped64.points[None, :]), axis=1)
        np.testing.assert_allclose(shaped64.probs, shaped64.probs[partner], atol=1e-12)

    def test_reshaping_replaces_probs(self, qam64):
        once = maxwell_boltzmann_shape(qam64, 0.08)
        twice = maxwell_boltzmann_shape(once, 0.08)
        np.testing.assert_allclose(once.probs, twice.probs, atol=1e-15)


class TestEntropy:
    def test_uniform_64(self, qam64):
        assert entropy_bits(qam64.probs) == pytest.approx(6.0, abs=1e-12)

    def test_near_delta_limit(self):
        p = np.array([1.0 - 3e-16, 1e-16, 1e-16, 1e-16])
        assert entropy_bits(p) < 1e-13

    def test_exact_delta_convention(self):
        assert entropy_bits(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


class TestSampling:
    def test_empirical_frequencies(self, shaped64):
        count = 1_000_000
        bits, symbols = sample(shaped64, count, rng_seed=123)
        idx = np.argmin(np.abs(symbols[:, None] - shaped64.points[None, :]), axis=1)
        freq = np.bincount(idx, minlength=64) / count
        sigma = np.sqrt(shaped64.probs * (1 - shaped64.probs) / count)
        assert np.all(np.abs(freq - shaped64.probs) < 3.5 * sigma + 1e-9)
        # bits must be the labels of the sampled points
        np.testing.assert_array_equal(bits, shaped64.bit_labels[idx])

    def test_single_draw_is_member(self, shaped64):
        _, symbols = sample(shaped64, 1, rng_seed=5)
        assert np.min(np.abs(shaped64.points - symbols[0])) < 1e-12

    def test_deterministic_under_seed(self, shaped64):
        b1, s1 = sample(shaped64, 1000, rng_seed=42)
        b2, s2 = sample(shaped64, 1000, rng_seed=42)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(s1, s2)

    def test_count_validation(self, qpsk):
        with pytest.raises(ValueError):
            sample(qpsk, 0, rng_seed=1)


class TestValidation:
    def test_rejects_nonunit_energy(self, qpsk):
        with pytest.raises(ValueError):
            Constellation(qpsk.points * 2.0, qpsk.probs, qpsk.bit_labels, 4)

    def test_rejects_bad_probs(self, qpsk):
        bad = np.array([0.5, 0.5, 0.25, -0.25])
        with pytest.raises(ValueError):
            Constellation(qpsk.points, bad, qpsk.bit_labels, 4)

    def test_rejects_duplicate_labels(self, qpsk):
        labels = qpsk.bit_labels.copy()
        labels[1] = labels[0]
        with pytest.raises(ValueError):
            Constellation(qpsk.points, qpsk.probs, labels, 4)

    def test_rejects_broken_symmetry(self, qpsk):
        points = qpsk.points.copy()
        points[0] *= np.exp(0.3j)
        points /= np.sqrt(np.sum(qpsk.probs * np.abs(points) ** 2))
        with pytest.raises(ValueError):
            Constellation(points, qpsk.probs, qpsk.bit_labels, 4)


class TestAxisDecomposition:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_reconstructs_points_probs_and_labels(self, order):
        shaped, _ = shape_for_entropy(build_qam(order), max(2.0, math.log2(order) - 0.25))
        # derived from the arrays alone: a copy rebuilt from them factors the same way
        constellation = Constellation(
            shaped.points.copy(), shaped.probs.copy(), shaped.bit_labels.copy(), shaped.sym_order
        )
        axes = constellation.axis_decomposition()
        i = np.searchsorted(axes.levels[0], constellation.points.real)
        q = np.searchsorted(axes.levels[1], constellation.points.imag)
        np.testing.assert_array_equal(
            axes.levels[0][i] + 1j * axes.levels[1][q], constellation.points
        )
        probs = np.exp(axes.log_priors[0][i] + axes.log_priors[1][q])
        np.testing.assert_allclose(probs, constellation.probs, rtol=1e-12, atol=0.0)
        labels = np.empty_like(constellation.bit_labels)
        labels[:, axes.bit_columns[0]] = axes.level_bits[0][i]
        labels[:, axes.bit_columns[1]] = axes.level_bits[1][q]
        np.testing.assert_array_equal(labels, constellation.bit_labels)
        half = constellation.bits_per_symbol // 2
        assert axes.bit_columns[0].tolist() == list(range(half))


@given(lam=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_shaped_probs_always_valid(lam):
    shaped = maxwell_boltzmann_shape(build_qam(16), lam)
    assert abs(shaped.probs.sum() - 1.0) <= 1e-12
    assert np.all(shaped.probs > 0)
    energy = np.sum(shaped.probs * np.abs(shaped.points) ** 2)
    assert abs(energy - 1.0) <= 1e-12
