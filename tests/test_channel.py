"""Channel model: path loss, fading draws, CSI perturbation, receiver noise."""

import numpy as np
import pytest

from airfd.channel import (
    ChannelConfig,
    ChannelState,
    path_loss,
    perturb_csi,
    sample_channel,
    sample_distances,
    sample_noise,
    scale_coefficients,
)
from airfd.rng import substream

# Reference gain at d=100 m, f_c=915 MHz, exponent 4, unit antenna gains,
# computed beforehand in 60-digit decimal arithmetic via the wavelength form
# (lambda / (4 pi d))**4 with lambda = c / f.
GAIN_100M_915MHZ_PL4 = 4.634055027193877e-15


def make_config(**overrides):
    base = dict(num_wds=3, num_antennas=2)
    base.update(overrides)
    return ChannelConfig(**base)


class TestPathLoss:
    def test_zero_exponent_collapses_distance_term(self):
        config = make_config(pathloss_exponent=0.0, antenna_gain_ps=1.0, antenna_gain_wd=1.0)
        assert path_loss(123.456, config) == 1.0

    def test_reference_value(self):
        config = make_config(
            carrier_freq=915e6, pathloss_exponent=4.0,
            antenna_gain_ps=1.0, antenna_gain_wd=1.0,
        )
        assert path_loss(100.0, config) == pytest.approx(GAIN_100M_915MHZ_PL4, rel=1e-12)

    def test_quartic_law_distance_doubling(self):
        config = make_config(pathloss_exponent=4.0)
        ratio = path_loss(2 * 73.0, config) / path_loss(73.0, config)
        assert ratio == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        config = make_config(pathloss_exponent=2.5)
        distances = np.linspace(10.0, 1000.0, 50)
        gains = [path_loss(d, config) for d in distances]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_nonpositive_distance_rejected(self):
        config = make_config()
        with pytest.raises(ValueError):
            path_loss(0.0, config)
        with pytest.raises(ValueError):
            path_loss(-5.0, config)


class TestSampleChannel:
    def test_deterministic_given_seed(self):
        config = make_config(num_wds=4, num_antennas=3)
        distances = np.array([100.0, 200.0, 300.0, 400.0])
        state_a = sample_channel(config, distances, substream(7, "fading", 0))
        state_b = sample_channel(config, distances, substream(7, "fading", 0))
        assert np.array_equal(state_a.coefficients, state_b.coefficients)

    def test_unit_fading_variance(self):
        # Path loss forced to 1 via zero exponent: entries are CN(0, 1).
        config = make_config(num_wds=100, num_antennas=10, pathloss_exponent=0.0)
        rng = substream(11, "variance-bulk")
        entries = np.concatenate(
            [
                sample_channel(config, np.full(100, 50.0), rng).coefficients.ravel()
                for _ in range(100)
            ]
        )
        assert entries.size == 100_000
        variance = np.mean(np.abs(entries) ** 2)
        assert variance == pytest.approx(1.0, rel=0.02)

    def test_scalar_channel_matches_path_loss(self):
        # M=1, N=1 scalar channel: mean |h|**2 over 1e5 draws equals the gain.
        config = make_config(num_wds=1, num_antennas=1, pathloss_exponent=4.0)
        gain = path_loss(150.0, config)
        rng = substream(3, "scalar")
        samples = np.concatenate(
            [
                sample_channel(config, np.array([150.0]), rng).coefficients.ravel()
                for _ in range(1000)
            ]
        )
        wide_config = make_config(num_wds=99, num_antennas=1000, pathloss_exponent=4.0)
        bulk = sample_channel(wide_config, np.full(99, 150.0), rng).coefficients.ravel()
        samples = np.concatenate([samples, bulk])
        assert samples.size == 100_000
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(gain, rel=0.02)

    def test_distance_shape_validated(self):
        config = make_config(num_wds=3)
        with pytest.raises(ValueError):
            sample_channel(config, np.array([100.0, 200.0]), substream(0, "x"))


class TestPerturbCsi:
    def test_zeta_one_is_identity(self):
        """At zeta = 1 the error is drawn and scaled by zero, and the estimate
        keeps the truth's bits, path-loss scaled or unit fading alike."""
        for seed in range(6):
            m, n = 1 + seed, 1 + (3 * seed) % 7
            exponent = 4.0 if seed % 2 else 0.0
            config = make_config(num_wds=m, num_antennas=n, pathloss_exponent=exponent)
            state = sample_channel(
                config, np.linspace(100, 400, m), substream(seed, "truth")
            )
            out = perturb_csi(state, 1.0, substream(seed, "csi"))
            assert np.array_equal(
                out.coefficients.view(np.uint64), state.coefficients.view(np.uint64)
            )

    def test_zeta_zero_independent_of_input(self):
        # Correlation between input and output entries should vanish.
        rng_truth = substream(5, "truth")
        rng_err = substream(5, "err")
        config = make_config(num_wds=200, num_antennas=50, pathloss_exponent=0.0)
        state = sample_channel(config, np.full(200, 100.0), rng_truth)
        out = perturb_csi(state, 0.0, rng_err)
        h = state.coefficients.ravel()
        g = out.coefficients.ravel()
        assert h.size == 10_000
        corr = np.abs(np.mean(h * np.conj(g))) / (
            np.sqrt(np.mean(np.abs(h) ** 2)) * np.sqrt(np.mean(np.abs(g) ** 2))
        )
        assert corr < 0.02

    def test_half_zeta_variance_from_zero_state(self):
        zeros = ChannelState(coefficients=np.zeros((250, 40), dtype=complex))
        out = perturb_csi(zeros, 0.5, substream(9, "halfvar"))
        entries = out.coefficients.ravel()
        assert entries.size == 10_000
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(0.5, rel=0.03)

    def test_truth_unmodified_and_zeta_validated(self):
        config = make_config()
        state = sample_channel(config, np.array([100.0, 150.0, 200.0]), substream(1, "t"))
        before = state.coefficients.copy()
        perturb_csi(state, 0.3, substream(1, "e"))
        assert np.array_equal(state.coefficients, before)
        with pytest.raises(ValueError):
            perturb_csi(state, 1.5, substream(1, "e"))
        with pytest.raises(ValueError):
            perturb_csi(state, -0.1, substream(1, "e"))


class TestSampleNoise:
    def test_zero_variance_gives_zeros(self):
        out = sample_noise(4, 10, 0.0, substream(0, "n"))
        assert out.shape == (10, 4)
        assert np.all(out == 0)

    def test_variance_matches_within_monte_carlo_tolerance(self):
        draws = sample_noise(1, 1_000_000, 1e-8, substream(42, "noise-var"))
        variance = np.mean(np.abs(draws) ** 2)
        assert variance == pytest.approx(1e-8, rel=0.02)

    def test_reproducible_stream(self):
        a = sample_noise(3, 100, 0.5, substream(7, "rep"))
        b = sample_noise(3, 100, 0.5, substream(7, "rep"))
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_noise(2, 5, -1.0, substream(0, "n"))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: path_loss(np.nan, make_config()), "distance"),
        (lambda: path_loss(np.inf, make_config()), "distance"),
        (lambda: sample_noise(2, 5, np.nan, substream(0, "n")), "noise_variance"),
        (lambda: sample_noise(2, 5, np.inf, substream(0, "n")), "noise_variance"),
    ],
    ids=["path_loss-nan", "path_loss-inf", "sample_noise-nan", "sample_noise-inf"],
)
def test_non_finite_scalar_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestHelpers:
    def test_sample_distances_range_and_determinism(self):
        config = make_config(num_wds=1000, distance_range=(100.0, 500.0))
        d1 = sample_distances(config, substream(1, "distances"))
        d2 = sample_distances(config, substream(1, "distances"))
        assert np.array_equal(d1, d2)
        assert d1.min() >= 100.0 and d1.max() <= 500.0

    def test_scale_coefficients(self):
        config = make_config(num_wds=2, num_antennas=3, pathloss_exponent=0.0)
        state = sample_channel(config, np.array([100.0, 100.0]), substream(4, "s"))
        scaled = scale_coefficients(state, np.array([2.0, 0.5]))
        assert np.allclose(scaled.coefficients[0], 2.0 * state.coefficients[0])
        assert np.allclose(scaled.coefficients[1], 0.5 * state.coefficients[1])

    @pytest.mark.parametrize("scale", [[2.0], [2.0, 0.5, 1.0]])
    def test_scale_of_another_length_rejected(self, scale):
        # A length-1 scale would broadcast over every row.
        state = ChannelState(coefficients=np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError, match=r"per_wd_scale must have shape \(2,\)"):
            scale_coefficients(state, np.array(scale))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_state_of_another_rank_rejected(self, shape):
        with pytest.raises(ValueError, match="coefficients must be 2-D"):
            ChannelState(coefficients=np.ones(shape, dtype=complex))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    def test_non_finite_state_rejected(self, bad):
        coefficients = np.ones((2, 3), dtype=complex)
        coefficients[1, 2] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ChannelState(coefficients=coefficients)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(num_wds=0)
        with pytest.raises(ValueError):
            make_config(csi_quality=1.2)
        with pytest.raises(ValueError):
            make_config(distance_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            make_config(noise_variance=-1e-9)
