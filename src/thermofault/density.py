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

from .taxonomy import check_keys, read_array, read_scalar

SQRT_2PI = math.sqrt(2.0 * math.pi)
BANDWIDTH_FLOOR = 1e-6
# Kernel supports in bandwidths (see kde_values). A term cut at
# KERNEL_SUPPORT is below e**-72 (5.4e-32). exp(-u*u/2) is exactly 0.0 in
# float64 once |u| > 38.6, so UNDERFLOW_SUPPORT cuts no term exp keeps.
KERNEL_SUPPORT = 12.0
UNDERFLOW_SUPPORT = 39.0
# Largest bound on the cut's effect that feature_vector accepts.
TRUNCATION_TOLERANCE = 2.0**-60
# Kernel terms per block in kde_values; bounds one call's temporaries.
KDE_BLOCK_TERMS = 1 << 15
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


def _sorted_finite(samples, what: str) -> np.ndarray:
    """samples as a sorted, read-only float64 vector (a 2-D stack: each row
    sorted); raises unless all finite. silverman_bandwidth and KdeEstimator
    each sort their samples, so a feature_vector region is sorted twice."""
    x = np.asarray(samples, dtype=np.float64)
    x = np.sort(x if x.ndim == 2 else x.reshape(-1), axis=-1)
    ends = x[..., :: max(x.shape[-1] - 1, 1)]  # sorting puts -inf first and +inf, then NaN, last
    if not all(map(math.isfinite, (ends if x.ndim == 1 else ends.reshape(-1)).tolist())):
        raise ValueError(f"{what} must be finite")
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class KdeEstimator:
    """Gaussian KDE with a fixed bandwidth (degrees C); R of them for (R, n) samples."""

    samples: np.ndarray
    bandwidth: float | np.ndarray

    def __post_init__(self):
        # canonical order: permuted inputs give bit-identical densities
        x = _sorted_finite(self.samples, "KDE samples")
        if x.size == 0:
            raise ValueError("KDE requires at least one sample")
        h = self.bandwidth
        if x.ndim == 2 and np.shape(h) != x.shape[:1]:
            raise ValueError(f"{np.size(h)} bandwidths for samples of shape {x.shape}")
        if not (h if x.ndim == 1 else np.min(h)) > 0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "samples", x)

    @property
    def n_samples(self) -> int:  # over all rows of a stack
        return int(self.samples.size)


def _kernel_sums(t: np.ndarray, h, cut: float) -> np.ndarray:
    """Row sums of the kernel terms of differences t (overwritten), cut below cut."""
    t /= h
    np.square(t, out=t)
    t *= -0.5
    zero = t < cut  # False for NaN, which np.exp keeps
    np.exp(t, out=t, where=~zero)
    np.copyto(t, 0.0, where=zero)
    return t.sum(axis=1) / SQRT_2PI


def kde_values(est: KdeEstimator, points, support: float = KERNEL_SUPPORT) -> np.ndarray:
    """Density at each query point (a row per set of a stack): mean kernel value / bandwidth.

    The kernel is cut at support bandwidths: a term whose exponent is below
    -support**2/2 is 0.0 and skips np.exp. Points more than support + 1
    bandwidths outside a set's sample range get 0.0 unevaluated; the margin
    covers rounding, so the cull drops no term that the cut keeps. The
    rest sum whole kernel rows in blocks (of a stack: the live (set, point)
    pairs), bit-identical to the full (points x samples) sum with the same
    cut: each term takes the full formula's steps in its order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    x, h, cut = est.samples, est.bandwidth, -0.5 * support * support
    step = max(1, KDE_BLOCK_TERMS // x.shape[-1])
    if x.ndim == 1:
        reach = (support + 1.0) * h
        # "not outside" keeps NaN points live, so they still give NaN
        live = np.flatnonzero(~((pts < x[0] - reach) | (pts > x[-1] + reach)))
        k = np.zeros(pts.size)
        for i in range(0, live.size, step):
            idx = live[i : i + step]
            k[idx] = _kernel_sums(pts[idx, None] - x, h, cut)
        return k / (x.size * h)
    h = np.asarray(h, dtype=np.float64)[:, None]
    reach = (support + 1.0) * h
    rows, cols = np.nonzero(~((pts < x[:, :1] - reach) | (pts > x[:, -1:] + reach)))
    k = np.zeros((len(x), pts.size))
    for i in range(0, rows.size, step):
        r, c = rows[i : i + step], cols[i : i + step]
        t = x[r]  # the block's sets, gathered once into its terms
        k[r, c] = _kernel_sums(np.subtract(pts[c, None], t, out=t), h[r], cut)
    return k / (x.shape[1] * h)


def kde_at(est: KdeEstimator, x: float) -> float:
    return float(kde_values(est, [x])[0])


def silverman_bandwidth(samples):
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5), per row of a 2-D stack.

    Uses the sample standard deviation (n-1 denominator) with an
    interquartile-range guard, floored at 1e-6 so degenerate inputs
    (all samples identical) still yield a usable bandwidth.
    """
    x = _sorted_finite(samples, "samples")  # sorted: order-independent sums
    n = x.shape[-1]
    if n < 2:
        raise ValueError("bandwidth selection requires at least 2 samples")
    # np.std(x, ddof=1), reduction for reduction
    d = x - (x.sum(axis=-1) / n)[..., None]
    np.square(d, out=d)
    var = d.sum(axis=-1) / (n - 1)
    iqr = _sorted_quantile(x, 0.75) - _sorted_quantile(x, 0.25)
    if x.ndim == 1:
        return max(1.06 * min(math.sqrt(var), iqr / 1.34) * n ** (-0.2), BANDWIDTH_FLOOR)
    return np.maximum(1.06 * np.minimum(np.sqrt(var), iqr / 1.34) * n ** (-0.2), BANDWIDTH_FLOOR)


def _sorted_quantile(x: np.ndarray, q: float):
    """np.percentile(x, 100 * q, axis=-1) of sorted x, 0 <= q < 1: numpy's rule, bit for bit."""
    v = (x.shape[-1] - 1) * q
    i = int(v)
    g = v - i
    a, b = x.T[i : i + 2].tolist() if x.ndim == 1 else x.T[i : i + 2]  # floats, or columns
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

    def __str__(self) -> str:
        return f"[{self.t_lo}, {self.t_hi}] x {self.n_points} points"

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
GRID_KEYS = ("t_lo", "t_hi", "n_points")


def _checked(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():  # a JSON null reads as NaN
        raise ValueError("feature 'values' must be finite numbers")
    if (values < 0).any():
        raise ValueError("density values must be non-negative")
    return values


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
        _checked(values).flags.writeable = False
        object.__setattr__(self, "values", values)

    def to_dict(self) -> dict:
        return feature_dict(self.grid, self.values, self.bandwidth)


FEATURE_KEYS = (*GRID_KEYS, "values", "bandwidth")


def feature_dict(grid: FeatureGrid, values: np.ndarray, bandwidth: float) -> dict:
    """The JSON form of one feature, with the FEATURE_KEYS that read_features reads."""
    return {**grid.to_dict(), "values": values.tolist(), "bandwidth": float(bandwidth)}


def read_features(docs: list, what: str = "feature") -> tuple[FeatureGrid | None, np.ndarray]:
    """The one grid and the (n, n_points) values of n feature dicts; for
    no dicts, None and an empty array (no rows, no width).

    Each dict is checked as a PdfFeature checks its fields: it holds
    exactly FEATURE_KEYS, its scalars have the right JSON types, and its
    values are n_points finite, non-negative numbers; and all must share
    one grid. The values are decoded by one np.array call; an error names
    the index of the dict at fault as "{what} {i}".
    """
    if not docs:
        return None, np.empty(0)
    grid = raw_grid = None
    for i, d in enumerate(docs):
        try:
            check_keys(d, FEATURE_KEYS, "feature", FEATURE_KEYS)
            read_scalar(d, "bandwidth", float, "feature")
            raw = (d["t_lo"], d["t_hi"], d["n_points"])
            # equal JSON values read as equal scalars, so only a new triple is parsed
            g = grid if raw == raw_grid else FeatureGrid.from_dict(d, "feature")
        except ValueError as exc:
            raise ValueError(f"{what} {i}: {exc}") from None
        if grid is None:
            grid, raw_grid = g, raw
        elif g != grid:
            raise ValueError(f"{what} {i} has grid {g}, but the first one has grid {grid}")
    try:
        values = np.array([d["values"] for d in docs], dtype=np.float64)
    except (TypeError, ValueError):  # a ragged or non-numeric list
        values = None
    if values is None or values.shape != (len(docs), grid.n_points):
        for i, d in enumerate(docs):  # name the first dict at fault
            row = read_array(d, "values", f"{what} {i}: feature")
            if row.shape != (grid.n_points,):
                raise ValueError(
                    f"{what} {i}: feature 'values' has shape {row.shape},"
                    f" but its grid has {grid.n_points} points"
                )
    finite = np.isfinite(values).all(axis=1)  # a JSON null reads as NaN
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{what} {i}: feature 'values' must be finite numbers")
    negative = (values < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"{what} {int(np.argmax(negative))}: density values must be non-negative")
    return grid, values


def _truncation_bound(peak: float, mass: float, grid: FeatureGrid, h: float) -> float:
    """Bound on how far the KERNEL_SUPPORT feature raw / mass, peak = max(raw),
    is from the UNDERFLOW_SUPPORT one, for mass > 0; see feature_vector."""
    d = math.exp(-0.5 * KERNEL_SUPPORT * KERNEL_SUPPORT) / (h * SQRT_2PI)
    return d / mass * max(1.0, grid.n_points * grid.step * peak / mass)


def feature_vector(samples, grid: FeatureGrid = DEFAULT_GRID, bandwidth="auto"):
    """KDE of the samples evaluated on the grid and renormalized to unit mass.

    A 2-D (R, n) stack of R regions gives their (R, n_points) values and
    (R,) bandwidths, the bytes each gets alone; a stack of one is computed
    as a 1-D call, cheaper than a stack's per-pair bookkeeping. bandwidth
    may be a positive float or "auto" (Silverman's rule; a lone sample
    falls back to the floor value). The samples go as given to
    silverman_bandwidth and KdeEstimator, which each sort and check them;
    only where Silverman's rule is not used are they checked here.

    The KDE is evaluated at KERNEL_SUPPORT. Each grid value then differs
    from the UNDERFLOW_SUPPORT one by at most D = e**-72 / (h sqrt(2 pi)),
    and the mass m by at most n_points * step * D, so the feature moves by
    at most (D / m) * max(1, n_points * step * max(raw) / m): a bound on
    the exact sums, which float rounding can exceed only where a cut term
    tips a rounding tie. The regions where that bound exceeds
    TRUNCATION_TOLERANCE (or m is 0) are evaluated again at
    UNDERFLOW_SUPPORT, which gives the full sum's bytes.
    """
    x = np.asarray(samples, dtype=np.float64)
    stack = x.ndim == 2
    x = x if stack and len(x) > 1 else x.reshape(-1)
    if bandwidth == "auto" and x.shape[-1] >= 2:
        w = silverman_bandwidth(x)
    else:
        x = _sorted_finite(x, "samples")
        if x.size == 0:
            raise ValueError("feature extraction requires at least one sample")
        w = BANDWIDTH_FLOOR if bandwidth == "auto" else float(bandwidth)
        if w <= 0:
            raise ValueError("bandwidth must be positive")
        w = np.full(len(x), w) if x.ndim == 2 else w
    est = KdeEstimator(x, w)
    raw = kde_values(est, grid.points())
    if x.ndim == 1:  # one region: numbers, not the rows' lists
        mass = float(raw.sum() * grid.step)
        if mass <= 0.0 or _truncation_bound(raw.max(), mass, grid, w) > TRUNCATION_TOLERANCE:
            raw = kde_values(est, grid.points(), support=UNDERFLOW_SUPPORT)
            mass = float(raw.sum() * grid.step)
        if mass <= 0.0:
            raise _no_mass_error(est.samples, w, grid)
        values = raw / mass
        return (_checked(values[None]), np.array([w])) if stack else PdfFeature(grid, values, w)
    mass = raw.sum(axis=1) * grid.step
    rows = enumerate(zip(mass.tolist(), raw.max(axis=1).tolist(), w.tolist()))
    redo = [
        i for i, (m, peak, h) in rows
        if m <= 0.0 or _truncation_bound(peak, m, grid, h) > TRUNCATION_TOLERANCE
    ]
    if redo:
        full = KdeEstimator(est.samples[redo], w[redo])
        raw[redo] = kde_values(full, grid.points(), support=UNDERFLOW_SUPPORT)
        mass[redo] = raw[redo].sum(axis=1) * grid.step
    for i in (i for i in redo if mass[i] <= 0.0):
        raise _no_mass_error(est.samples[i], float(w[i]), grid)
    return _checked(raw / mass[:, None]), w


def _no_mass_error(x: np.ndarray, h: float, grid: FeatureGrid) -> ValueError:
    """The error for sorted samples x whose density is 0 at every grid point."""
    lo, hi = x[0], x[-1]
    if lo <= grid.t_hi and grid.t_lo <= hi:  # the grid overlaps the samples
        return ValueError(
            f"bandwidth {h!r} is too small for the feature grid step {grid.step!r}:"
            f" the density of the samples [{lo}, {hi}] is 0 at every grid point"
        )
    return ValueError(
        f"feature grid [{grid.t_lo}, {grid.t_hi}] does not overlap the sample range [{lo}, {hi}]"
    )
