"""Fading-channel generation: path loss, block-fading draws, receiver noise,
and channel-state-information (CSI) error perturbations.

Conventions: a circularly-symmetric complex Gaussian entry with variance sigma**2
is realized as independent real/imaginary parts, each N(0, sigma**2 / 2), so the
mean squared magnitude of the entry is sigma**2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelConfig",
    "ChannelState",
    "path_loss",
    "sample_distances",
    "sample_channel",
    "scale_coefficients",
    "perturb_csi",
    "sample_noise",
]

_SPEED_OF_LIGHT = 3.0e8  # m/s, as used in the free-space gain formula


@dataclass(frozen=True)
class ChannelConfig:
    """Static parameters of the uplink between the devices and the server.

    Attributes:
        num_wds: Number of single-antenna transmitting devices M.
        num_antennas: Number of receive antennas N at the server.
        noise_variance: Receiver noise variance per complex entry (watts).
        carrier_freq: Carrier frequency in Hz.
        pathloss_exponent: Free-space decay exponent (>= 2 for physical setups;
            0 is allowed and collapses the distance term to 1).
        antenna_gain_ps: Server-side antenna gain, linear scale (> 0).
        antenna_gain_wd: Device-side antenna gain, linear scale (> 0).
        distance_range: (d_min, d_max) device-server distances in meters.
        csi_quality: Channel-estimate quality in [0, 1]; 1 = perfect estimates.
    """

    num_wds: int
    num_antennas: int
    noise_variance: float = 1e-8
    carrier_freq: float = 915e6
    pathloss_exponent: float = 4.0
    antenna_gain_ps: float = 1.0
    antenna_gain_wd: float = 1.0
    distance_range: tuple[float, float] = (100.0, 500.0)
    csi_quality: float = 1.0

    def __post_init__(self) -> None:
        if self.num_wds < 1:
            raise ValueError(f"num_wds must be >= 1, got {self.num_wds}")
        if self.num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {self.num_antennas}")
        # Each test is written so that NaN fails it.
        if not 0.0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be finite and nonnegative")
        if not 0.0 < self.carrier_freq < np.inf:
            raise ValueError("carrier_freq must be finite and positive")
        if not 0.0 <= self.pathloss_exponent < np.inf:
            raise ValueError("pathloss_exponent must be finite and nonnegative")
        for name in ("antenna_gain_ps", "antenna_gain_wd"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.csi_quality <= 1.0:
            raise ValueError(f"csi_quality must be in [0, 1], got {self.csi_quality}")
        d_min, d_max = self.distance_range
        if not 0.0 < d_min <= d_max < np.inf:
            raise ValueError(
                f"need 0 < d_min <= d_max < inf, got {self.distance_range}"
            )


@dataclass(frozen=True)
class ChannelState:
    """One block-fading realization: an (M, N) complex coefficient matrix.

    Row i is the length-N channel vector of device i for this round. The array
    is frozen (read-only) so states can be shared across threads and methods.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.complex128)
        if coef.ndim != 2:
            raise ValueError(f"coefficients must be 2-D (M, N), got shape {coef.shape}")
        if not np.all(np.isfinite(coef.view(np.float64))):
            raise ValueError("coefficients must be finite")
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def num_wds(self) -> int:
        return self.coefficients.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.coefficients.shape[1]


def path_loss(distance: float, config: ChannelConfig) -> float:
    """Free-space power gain G_PS * G_D * (3e8 / (4 pi f_c d)) ** PL.

    Args:
        distance: Device-server distance in meters, > 0.
        config: Channel parameters supplying gains, frequency, and exponent.

    Returns:
        Linear power gain (dimensionless, >= 0).
    """
    if not 0.0 < distance < np.inf:  # written so that a NaN fails it
        raise ValueError(f"distance must be finite and positive, got {distance}")
    ratio = _SPEED_OF_LIGHT / (4.0 * np.pi * config.carrier_freq * distance)
    return float(
        config.antenna_gain_ps
        * config.antenna_gain_wd
        * ratio**config.pathloss_exponent
    )


def sample_distances(config: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw M device distances uniformly from the configured range.

    Drawn once per experiment seed and held fixed across rounds (static device
    placement; only the small-scale fading is redrawn per round).
    """
    d_min, d_max = config.distance_range
    return rng.uniform(d_min, d_max, size=config.num_wds)


def _standard_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """IID entries ~ CN(0, 1): real/imag parts each N(0, 1/2), drawn as
    consecutive (real, imag) pairs and read as complex in place."""
    parts = rng.standard_normal(size=shape + (2,)) * np.sqrt(0.5)
    return parts.view(np.complex128)[..., 0]


def sample_channel(
    config: ChannelConfig,
    distances: np.ndarray,
    rng: np.random.Generator,
) -> ChannelState:
    """Draw one block-fading state: h_i = sqrt(path_loss(d_i)) * g_i.

    The small-scale fading g_i has IID CN(0, 1) entries across devices and
    antennas.

    Args:
        config: Channel parameters.
        distances: Length-M distances in meters.
        rng: Seeded generator; the draw is bit-reproducible given the stream.

    Returns:
        ChannelState with an (M, N) coefficient matrix.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (config.num_wds,):
        raise ValueError(
            f"distances must have shape ({config.num_wds},), got {distances.shape}"
        )
    amplitudes = np.sqrt([path_loss(d, config) for d in distances])
    fading = _standard_complex(rng, (config.num_wds, config.num_antennas))
    coefficients = amplitudes[:, None] * fading
    return ChannelState(coefficients=coefficients)


def scale_coefficients(state: ChannelState, per_wd_scale: np.ndarray) -> ChannelState:
    """Return a new state with row i multiplied by per_wd_scale[i].

    Used to apply sqrt(path-loss) amplitudes to a unit-variance fading state,
    e.g. when the same fading draw must be shared between a true channel and
    its estimation-error perturbation.
    """
    scale = np.asarray(per_wd_scale, dtype=np.float64)
    if scale.shape != (state.num_wds,):
        raise ValueError(f"per_wd_scale must have shape ({state.num_wds},)")
    return ChannelState(coefficients=state.coefficients * scale[:, None])


def perturb_csi(
    truth: ChannelState, zeta: float, rng: np.random.Generator
) -> ChannelState:
    """Additive channel-estimation error: h_hat = sqrt(zeta) h + sqrt(1-zeta) n.

    The error n has IID CN(0, 1) entries, independent of the truth, drawn at
    every zeta: zeta = 1 keeps the truth's bits (0 * n adds signed zeros) and
    zeta = 0 returns pure noise. The input state is not modified.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    error = _standard_complex(rng, truth.coefficients.shape)
    perturbed = np.sqrt(zeta) * truth.coefficients + np.sqrt(1.0 - zeta) * error
    return ChannelState(coefficients=perturbed)


def sample_noise(
    num_antennas: int,
    count: int,
    noise_variance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Receiver noise for `count` slots: sqrt(noise_variance) * CN(0, 1) draws.

    Returns:
        (count, num_antennas) complex array; zeros when noise_variance is 0.
    """
    if not 0.0 <= noise_variance < np.inf:  # written so that a NaN fails it
        raise ValueError("noise_variance must be finite and nonnegative")
    return np.sqrt(noise_variance) * _standard_complex(rng, (count, num_antennas))
