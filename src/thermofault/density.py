"""Temperature distribution features: histograms and Gaussian kernel density.

The classifier input is the estimated probability density of a region's
pixel temperatures, evaluated on a fixed global grid shared by every
sample so that absolute temperature differences stay visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .taxonomy import read_scalar

SQRT_2PI = math.sqrt(2.0 * math.pi)
BANDWIDTH_FLOOR = 1e-6
# exp(-u*u/2) is exactly 0.0 in float64 once |u| > 38.6, so a query point
# more than KDE_CUTOFF bandwidths from every sample has density 0.0.
KDE_CUTOFF = 39.0
# Kernel terms per block in kde_values; bounds one call's temporaries.
KDE_BLOCK_TERMS = 1 << 20
# exp(t) is exactly +0.0 in float64 for t < -745.14, so kde_values stores
# 0.0 for exponents below this without calling np.exp, whose underflow path
# costs about 15x a normal result. Subnormal results still go through
# np.exp: they can change the bits of a sum.
EXP_UNDERFLOW = -746.0
_MAX_BINS = 50_000_000

DEFAULT_BIN_ORIGIN = 0.0
DEFAULT_BIN_WIDTH = 1.0


@dataclass(frozen=True)
class TemperatureHistogram:
    """Relative-frequency histogram over uniform temperature bins.

    probs[b] is the fraction of samples falling in
    [bin_origin + b*bin_width, bin_origin + (b+1)*bin_width).
    """

    bin_origin: float
    bin_width: float
    probs: np.ndarray
    n_samples: int

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if (probs < 0).any() or (probs > 1).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_bins(self) -> int:
        return int(self.probs.size)

    def bin_edges(self) -> np.ndarray:
        return self.bin_origin + self.bin_width * np.arange(self.n_bins + 1)


def histogram(
    samples, bin_origin: float = DEFAULT_BIN_ORIGIN, bin_width: float = DEFAULT_BIN_WIDTH
) -> TemperatureHistogram:
    """Count samples into uniform bins; bin of t is floor((t - origin) / width)."""
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("histogram requires at least one sample")
    if not np.isfinite(x).all():
        raise ValueError("histogram samples must be finite")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    idx = np.floor((x - bin_origin) / bin_width).astype(np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if hi - lo + 1 > _MAX_BINS:
        raise ValueError(f"samples span {hi - lo + 1} bins; narrow the range or widen the bins")
    counts = np.bincount(idx - lo, minlength=hi - lo + 1)
    return TemperatureHistogram(
        bin_origin=bin_origin + lo * bin_width,
        bin_width=bin_width,
        probs=counts / x.size,
        n_samples=int(x.size),
    )


def anchored_histogram(samples, bin_width: float = DEFAULT_BIN_WIDTH) -> TemperatureHistogram:
    """Histogram whose first bin edge sits exactly on the sample minimum.

    interval_probability over the coverage (bin_edges()[0], bin_edges()[-1])
    is exactly 1 for any histogram; with this anchoring the same holds for
    (sample min, sample max) whenever the max does not sit exactly on a bin
    edge (always true for continuous-valued data).
    """
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("histogram requires at least one sample")
    return histogram(x, bin_origin=float(x.min()), bin_width=bin_width)


def _cumulative_below(h: TemperatureHistogram, t: float) -> float:
    """Total mass of bins whose lower edge lies strictly below t."""
    q = (t - h.bin_origin) / h.bin_width
    n = int(np.clip(math.ceil(q), 0, h.n_bins))
    if n <= 0:
        return 0.0
    total = h.probs.sum()
    # numpy sums a long prefix pairwise, which can exceed a longer prefix's
    # sum; a running sum capped at the full mass only grows with n
    return float(total if n == h.n_bins else min(np.cumsum(h.probs[:n])[-1], total))


def interval_probability(h: TemperatureHistogram, theta: float, theta_prime: float) -> float:
    """Probability mass of the half-open temperature interval (theta, theta_prime].

    Computed as a difference of cumulative masses. Because no mass lies
    below the first bin edge, F(theta, theta') equals
    F(anchor, theta') - F(anchor, theta) bit for bit whenever anchor is at
    or below the histogram origin.
    """
    if theta > theta_prime:
        raise ValueError(f"interval bounds out of order: {theta} > {theta_prime}")
    return _cumulative_below(h, theta_prime) - _cumulative_below(h, theta)


class _SortedSamples(np.ndarray):
    """A read-only float64 vector that _sorted_finite has sorted and checked.

    feature_vector makes one as a view at each of its calls to
    silverman_bandwidth and KdeEstimator, so a region is sorted and checked
    once; both unwrap it before any arithmetic. numpy keeps the subclass on
    slices and ufunc results (x[::-1], -x, x + c), which are neither sorted
    nor checked: never pass an array derived from one to _sorted_finite.
    """


def _sorted_finite(samples, what: str) -> np.ndarray:
    """samples as a sorted, read-only float64 vector; raises unless all finite."""
    if isinstance(samples, _SortedSamples):
        return samples.view(np.ndarray)
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    # sorting puts -inf first and +inf, then NaN, last
    if x.size and not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise ValueError(f"{what} must be finite")
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class KdeEstimator:
    """Gaussian kernel density estimator with a fixed bandwidth (degrees C)."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        # canonical order: permuted inputs give bit-identical densities
        x = _sorted_finite(self.samples, "KDE samples")
        if x.size == 0:
            raise ValueError("KDE requires at least one sample")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "samples", x)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


def kde_values(est: KdeEstimator, points) -> np.ndarray:
    """Density estimate at each query point: mean kernel value / bandwidth.

    Points beyond KDE_CUTOFF bandwidths from the samples get 0.0 unevaluated;
    the rest sum whole kernel rows in blocks, bit-identical to the full sum:
    each term takes the full formula's steps in its order, and only terms
    whose exp is exactly 0.0 (exponent below EXP_UNDERFLOW) skip np.exp.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    x, h = est.samples, est.bandwidth
    reach = KDE_CUTOFF * h
    # "not outside" keeps NaN points live, so they still give NaN
    live = np.flatnonzero(~((pts < x[0] - reach) | (pts > x[-1] + reach)))
    k = np.zeros(pts.size)
    rows = max(1, KDE_BLOCK_TERMS // x.size)
    for i in range(0, live.size, rows):
        idx = live[i : i + rows]
        t = pts[idx, None] - x[None, :]
        t /= h
        np.square(t, out=t)
        t *= -0.5
        zero = t < EXP_UNDERFLOW  # False for NaN, which np.exp keeps
        np.exp(t, out=t, where=~zero)
        np.copyto(t, 0.0, where=zero)
        k[idx] = t.sum(axis=1) / SQRT_2PI
    return k / (est.n_samples * h)


def kde_at(est: KdeEstimator, x: float) -> float:
    return float(kde_values(est, [x])[0])


def silverman_bandwidth(samples) -> float:
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5).

    Uses the sample standard deviation (n-1 denominator) with an
    interquartile-range guard, floored at 1e-6 so degenerate inputs
    (all samples identical) still yield a usable bandwidth.
    """
    x = _sorted_finite(samples, "samples")  # sorted: order-independent sums
    n = x.size
    if n < 2:
        raise ValueError("bandwidth selection requires at least 2 samples")
    # np.std(x, ddof=1), reduction for reduction
    d = x - x.sum() / n
    np.square(d, out=d)
    sd = math.sqrt(d.sum() / (n - 1))
    scale = min(sd, (_sorted_quantile(x, 0.75) - _sorted_quantile(x, 0.25)) / 1.34)
    return max(1.06 * scale * n ** (-0.2), BANDWIDTH_FLOOR)


def _sorted_quantile(x: np.ndarray, q: float) -> float:
    """np.percentile(x, 100 * q) of sorted x, 0 <= q < 1: numpy's linear rule, bit for bit."""
    v = (x.size - 1) * q
    i = int(v)
    g = v - i
    a, b = float(x[i]), float(x[i + 1])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


@dataclass(frozen=True)
class FeatureGrid:
    """Uniform temperature grid on which densities are discretized."""

    t_lo: float
    t_hi: float
    n_points: int

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError(f"grid needs t_lo < t_hi, got [{self.t_lo}, {self.t_hi}]")
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def step(self) -> float:
        return (self.t_hi - self.t_lo) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The grid temperatures, built once per grid; read-only."""
        return self._points

    @functools.cached_property
    def _points(self) -> np.ndarray:
        pts = np.linspace(self.t_lo, self.t_hi, self.n_points)
        pts.flags.writeable = False
        return pts

    def to_dict(self) -> dict:
        return {"t_lo": self.t_lo, "t_hi": self.t_hi, "n_points": self.n_points}

    @classmethod
    def from_dict(cls, d: dict, what: str = "grid") -> "FeatureGrid":
        """Reads only the three grid keys, so a flat feature dict parses too."""
        return cls(
            read_scalar(d, "t_lo", float, what),
            read_scalar(d, "t_hi", float, what),
            read_scalar(d, "n_points", int, what),
        )


DEFAULT_GRID = FeatureGrid(t_lo=-20.0, t_hi=120.0, n_points=128)


@dataclass(frozen=True)
class PdfFeature:
    """Density evaluated on a grid, renormalized to unit mass."""

    grid: FeatureGrid
    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values length must match the grid")
        if (values < 0).any():
            raise ValueError("density values must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def to_dict(self) -> dict:
        return {
            **self.grid.to_dict(),
            "values": self.values.tolist(),
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PdfFeature":
        values = np.asarray(d["values"], dtype=np.float64)
        bandwidth = read_scalar(d, "bandwidth", float, "feature")
        return cls(grid=FeatureGrid.from_dict(d, "feature"), values=values, bandwidth=bandwidth)


def feature_vector(samples, grid: FeatureGrid = DEFAULT_GRID, bandwidth="auto") -> PdfFeature:
    """KDE of the samples evaluated on the grid and renormalized to unit mass.

    bandwidth may be a positive float or "auto" (Silverman's rule; a lone
    sample falls back to the floor value).
    """
    x = _sorted_finite(samples, "samples")
    if x.size == 0:
        raise ValueError("feature extraction requires at least one sample")
    if bandwidth == "auto":
        w = silverman_bandwidth(x.view(_SortedSamples)) if x.size >= 2 else BANDWIDTH_FLOOR
    else:
        w = float(bandwidth)
        if w <= 0:
            raise ValueError("bandwidth must be positive")
    est = KdeEstimator(x.view(_SortedSamples), w)
    raw = kde_values(est, grid.points())
    mass = float(raw.sum() * grid.step)
    if mass <= 0.0:
        lo, hi = est.samples[0], est.samples[-1]
        if lo <= grid.t_hi and grid.t_lo <= hi:  # the grid overlaps the samples
            raise ValueError(
                f"bandwidth {w!r} is too small for the feature grid step {grid.step!r}:"
                f" the density of the samples [{lo}, {hi}] is 0 at every grid point"
            )
        raise ValueError(
            f"feature grid [{grid.t_lo}, {grid.t_hi}] does not overlap the sample range"
            f" [{lo}, {hi}]"
        )
    return PdfFeature(grid=grid, values=raw / mass, bandwidth=w)
