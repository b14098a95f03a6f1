"""Unwrapping, cycle-slip compensation, and derotation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wiener_cpe import cycle_slip_correct, derotate, postprocess, unwrap
from wiener_cpe.numerics import wrap_sector


class TestUnwrap:
    def test_half_period_jump_continues_upward(self):
        # modular-arithmetic oracle: -0.7 + pi/2 is the continuation nearest 0.7
        out = unwrap(np.array([0.7, -0.7]), 4)
        np.testing.assert_allclose(out, [0.7, -0.7 + np.pi / 2], rtol=0, atol=1e-15)
        assert out[1] == pytest.approx(0.8707963267948966, abs=1e-15)

    def test_constant_sequence_unchanged(self):
        raw = np.full(32, 0.31)
        np.testing.assert_array_equal(unwrap(raw, 4), raw)

    def test_smooth_sequence_unchanged(self):
        raw = 0.2 * np.sin(np.linspace(0, 2 * np.pi, 50)) / 4
        assert np.max(np.abs(np.diff(raw))) < np.pi / 8
        np.testing.assert_array_equal(unwrap(raw, 4), raw)

    def test_first_element_unchanged(self):
        raw = np.array([-0.6, 0.7, -0.7, 0.6])
        assert unwrap(raw, 4)[0] == -0.6

    def test_differences_land_in_half_open_interval(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-np.pi / 4, np.pi / 4, size=500)
        diffs = np.diff(unwrap(raw, 4))
        assert np.all(diffs > -np.pi / 4)
        assert np.all(diffs <= np.pi / 4)

    @given(
        st.lists(st.floats(-np.pi / 4, np.pi / 4 - 1e-9), min_size=1, max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_wrap_back_roundtrip(self, raw_list):
        raw = np.array(raw_list)
        unwrapped = unwrap(raw, 4)
        np.testing.assert_allclose(wrap_sector(unwrapped, 4), raw, atol=1e-10)


class TestCycleSlipCorrect:
    def test_global_offset_removed_without_events(self):
        true = np.linspace(0.0, 0.3, 100)
        est = true + np.pi / 2
        corrected, events = cycle_slip_correct(est, true, 4)
        np.testing.assert_allclose(corrected, true, atol=1e-12)
        assert events == []

    def test_single_slip_detected(self):
        true = np.zeros(200)
        est = true.copy()
        est[100:] += np.pi / 2  # one slip of +1 period at index 100
        corrected, events = cycle_slip_correct(est, true, 4)
        assert events == [(100, 1)]
        assert np.max(np.abs(corrected - true)) < np.pi / 4

    def test_identity_when_equal(self):
        true = np.linspace(-0.2, 0.4, 64)
        corrected, events = cycle_slip_correct(true.copy(), true, 4)
        np.testing.assert_array_equal(corrected, true)
        assert events == []

    def test_residual_always_within_sector(self):
        rng = np.random.default_rng(1)
        true = np.cumsum(rng.normal(0, 0.05, size=1000))
        est = true + rng.uniform(-0.3, 0.3, size=1000) + np.pi / 2 * rng.integers(-3, 4, 1000)
        corrected, _ = cycle_slip_correct(est, true, 4)
        residual = corrected - true
        assert np.all(np.abs(residual) <= np.pi / 4 + 1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cycle_slip_correct(np.zeros(3), np.zeros(4), 4)


class TestDerotate:
    def test_true_phase_recovers_symbols(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        phi = rng.uniform(-1, 1, 50)
        np.testing.assert_allclose(derotate(x * np.exp(1j * phi), phi), x, atol=1e-14)

    def test_zero_phase_is_identity(self):
        y = np.array([1 + 2j, -0.5j, 3.0])
        np.testing.assert_array_equal(derotate(y, np.zeros(3)), y)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        phi = rng.uniform(-np.pi, np.pi, 100)
        np.testing.assert_allclose(np.abs(derotate(y, phi)), np.abs(y), rtol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_inverse_rotation_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = rng.uniform(-np.pi, np.pi, 16)
        np.testing.assert_allclose(derotate(derotate(y, phi), -phi), y, atol=1e-15)


class TestPostprocessPipeline:
    def test_derotated_output_consistent(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        phi_true = np.cumsum(rng.normal(0, 0.02, 32))
        phi_raw = wrap_sector(phi_true + rng.normal(0, 0.01, 32), 4)
        result = postprocess(phi_raw, y, phi_true, 4)
        np.testing.assert_allclose(
            result.x_hat, y * np.exp(-1j * result.phi_hat_corrected), atol=1e-15
        )
        assert np.max(np.abs(result.phi_hat_corrected - phi_true)) < np.pi / 4

