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

from .taxonomy import check_keys, quote, read_array, read_scalar

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
    probs = np.bincount(idx - lo, minlength=hi - lo + 1) / x.size
    probs.flags.writeable = False
    return TemperatureHistogram(
        bin_origin=bin_origin + lo * bin_width,
        bin_width=bin_width,
        probs=probs,
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


def _rows(samples) -> tuple[np.ndarray, bool]:
    """The float64 samples and True for a 2-D stack of regions; any other
    array is one region, returned as its (1, n) row and False."""
    x = np.asarray(samples, dtype=np.float64)
    return (x, True) if x.ndim == 2 else (x.reshape(1, -1), False)


def _sorted_finite(x: np.ndarray, what: str) -> np.ndarray:
    """The stack x, each row sorted, read-only; raises unless all finite (a
    feature_vector region is sorted twice: by silverman_bandwidth and KdeEstimator)."""
    x = x.copy()  # C order: each row's sums run along memory, as for one region
    x.sort(axis=1)  # puts -inf first and +inf, then NaN, last
    if x.shape[1] and not all(map(math.isfinite, x[:, 0].tolist() + x[:, -1].tolist())):
        raise ValueError(f"{what} must be finite")
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class KdeEstimator:
    """Gaussian KDE with a fixed bandwidth (degrees C); R of them for (R, n) samples."""

    samples: np.ndarray
    bandwidth: float | np.ndarray

    def __post_init__(self):
        x, stack = _rows(self.samples)
        x = _sorted_finite(x, "KDE samples")  # canonical order: permuted inputs, same bits
        if x.size == 0:
            raise ValueError("KDE requires at least one sample")
        h = np.asarray(self.bandwidth, dtype=np.float64)
        if h.size != len(x):
            raise ValueError(f"{h.size} bandwidths for samples of shape {np.shape(self.samples)}")
        if not all(map((0.0).__lt__, h.ravel().tolist())):
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "samples", x if stack else x[0])

    @property
    def n_samples(self) -> int:  # over all rows of a stack
        return int(self.samples.size)


def _kernel_sums(t: np.ndarray, h: np.ndarray, cut: float) -> np.ndarray:
    """Row sums of the kernel terms of differences t (overwritten) over column h, cut below cut."""
    t /= h
    np.square(t, out=t)
    t *= -0.5
    zero = t < cut  # False for NaN, which np.exp keeps
    np.exp(t, out=t, where=~zero)
    np.copyto(t, 0.0, where=zero)
    return t.sum(axis=1) / SQRT_2PI


@np.errstate(over="ignore")  # a term past float64 squares to inf: below the cut, so 0.0
def kde_values(est: KdeEstimator, points, support: float = KERNEL_SUPPORT) -> np.ndarray:
    """Density at each query point (a row per set of a 2-D stack): mean kernel value / bandwidth.

    The kernel is cut at support bandwidths: a term whose exponent is below
    -support**2/2 is 0.0 and skips np.exp. Points more than support + 1
    bandwidths outside a set's sample range get 0.0 unevaluated; the margin
    covers rounding, so the cull drops no term that the cut keeps. The
    live (set, point) pairs sum whole kernel rows in blocks, bit-identical
    to the full (points x samples) sum with the same cut: each term takes
    the full formula's steps in its order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    (x, stack), cut = _rows(est.samples), -0.5 * support * support
    h, n = np.asarray(est.bandwidth, dtype=np.float64).reshape(-1), x.shape[1]
    reach = ((support + 1.0) * h)[:, None]
    # "not outside" keeps NaN points live, so they still give NaN
    rows, cols = np.nonzero(~((pts < x[:, :1] - reach) | (pts > x[:, -1:] + reach)))
    k = np.zeros((len(x), pts.size))
    step = max(1, KDE_BLOCK_TERMS // n)
    for i in range(0, rows.size, step):
        r, c = rows[i : i + step], cols[i : i + step]
        t, hr = x[r], h[r]  # the block's sets, gathered once into its terms
        np.subtract(pts[c, None], t, out=t)
        k[r, c] = _kernel_sums(t, hr[:, None], cut) / (n * hr)
    return k if stack else k[0]


def kde_at(est: KdeEstimator, x: float) -> float:
    return float(kde_values(est, [x])[0])


@np.errstate(over="ignore", invalid="ignore")  # a variance past float64 raises below
def silverman_bandwidth(samples):
    """Rule-of-thumb bandwidth 1.06 * min(sd, IQR/1.34) * n^(-1/5), per row of a 2-D stack.

    Uses the sample standard deviation (n-1 denominator) with an
    interquartile-range guard, floored at 1e-6 so degenerate inputs
    (all samples identical) still yield a usable bandwidth. A region whose
    variance overflows float64 raises.
    """
    x, stack = _rows(samples)
    x = _sorted_finite(x, "samples")  # sorted: order-independent sums
    n = x.shape[1]
    if n < 2:
        raise ValueError("bandwidth selection requires at least 2 samples")
    # np.std(x, ddof=1), reduction for reduction
    d = x - x.sum(axis=1, keepdims=True) / n
    np.square(d, out=d)
    var = (d.sum(axis=1) / (n - 1)).tolist()
    if not all(map(math.isfinite, var)):
        lo, hi = x[[math.isfinite(v) for v in var].index(False)][[0, -1]]
        raise ValueError(f"the variance of the samples [{lo}, {hi}] overflows float64")
    iqr = map(float.__sub__, _sorted_quantile(x, 0.75), _sorted_quantile(x, 0.25))
    f = n ** (-0.2)
    w = [max(1.06 * min(math.sqrt(v), q / 1.34) * f, BANDWIDTH_FLOOR) for v, q in zip(var, iqr)]
    return np.array(w) if stack else w[0]


def _sorted_quantile(x: np.ndarray, q: float) -> list:
    """np.percentile(x, 100 * q, axis=1) of row-sorted x as floats, 0 <= q < 1, bit for bit."""
    v = (x.shape[1] - 1) * q
    i = int(v)
    g = v - i
    a, b = x.T[i : i + 2].tolist()
    return [hi - (hi - lo) * (1 - g) if g >= 0.5 else lo + (hi - lo) * g for lo, hi in zip(a, b)]


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
        """The grid of a dict of exactly the GRID_KEYS."""
        check_keys(d, GRID_KEYS, what, GRID_KEYS)
        return cls(*(read_scalar(d, k, t, what) for k, t in zip(GRID_KEYS, (float, float, int))))


DEFAULT_GRID = FeatureGrid(t_lo=-20.0, t_hi=120.0, n_points=128)
GRID_KEYS = ("t_lo", "t_hi", "n_points")


@dataclass(frozen=True)
class PdfFeature:
    """Density evaluated on a grid, renormalized to unit mass (feature_vector
    builds it, with read-only values)."""

    grid: FeatureGrid
    values: np.ndarray
    bandwidth: float

    def to_dict(self) -> dict:
        """The JSON form of one feature, with the FEATURE_KEYS that read_features reads."""
        values, bandwidth = self.values.tolist(), float(self.bandwidth)
        return {**self.grid.to_dict(), "values": values, "bandwidth": bandwidth}


FEATURE_KEYS = (*GRID_KEYS, "values", "bandwidth")


def read_features(docs: list, what: str = "feature") -> tuple[FeatureGrid | None, np.ndarray]:
    """The one grid and the (n, n_points) values of n feature dicts; for
    no dicts, None and an empty array (no rows, no width).

    Each dict holds exactly FEATURE_KEYS, its scalars have the right JSON
    types, its bandwidth is positive, and its values are n_points finite,
    non-negative numbers; and all must share one grid. One pass checks
    each dict in turn and copies its values into their row; then the
    values are checked finite and non-negative. An error names the index
    of the first dict at fault as "{what} {i}".
    """
    if not docs:
        return None, np.empty(0)
    grid = typed_grid = values = None
    for i, d in enumerate(docs):
        try:
            check_keys(d, FEATURE_KEYS, "feature", FEATURE_KEYS)
            if not read_scalar(d, "bandwidth", float, "feature") > 0:
                bandwidth = quote(d["bandwidth"])
                raise ValueError(f"feature 'bandwidth' must be positive, got {bandwidth}")
            raw = {k: d[k] for k in GRID_KEYS}
            # a triple equal to the first in value and JSON type (128.0 is not
            # 128) is read as the first grid; any other triple is parsed
            typed = [(type(v), v) for v in raw.values()]
            g = grid if typed == typed_grid else FeatureGrid.from_dict(raw, "feature")
        except ValueError as exc:
            raise ValueError(f"{what} {i}: {exc}") from None
        if grid is None:
            grid, typed_grid = g, typed
        elif g != grid:
            raise ValueError(f"{what} {i} has grid {g}, but the first one has grid {grid}")
        row = read_array(d, "values", f"{what} {i}: feature")
        if row.shape != (grid.n_points,):
            raise ValueError(
                f"{what} {i}: feature 'values' has shape {row.shape},"
                f" but its grid has {grid.n_points} points"
            )
        if values is None:  # sized by a row as read: a huge n_points allocates nothing
            values = np.empty((len(docs), row.size))
        values[i] = row
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
    (R,) bandwidths, the bytes each gets alone; any other array is one
    region, computed as a one-row stack, and gives a PdfFeature. bandwidth
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
    x, stack = _rows(samples)
    if x.size == 0:
        raise ValueError("feature extraction requires at least one sample")
    if bandwidth == "auto" and x.shape[1] >= 2:
        w = silverman_bandwidth(x)
    else:
        x = _sorted_finite(x, "samples")
        w = BANDWIDTH_FLOOR if bandwidth == "auto" else float(bandwidth)
        if not 0 < w < math.inf:
            raise ValueError(f'bandwidth must be "auto" or a positive finite number, got {w!r}')
        w = np.full(len(x), w)
    est = KdeEstimator(x, w)
    raw = kde_values(est, grid.points())
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
    raw /= mass[:, None]
    if not np.isfinite(raw).all():  # a subnormal grid step can overflow raw / mass
        raise ValueError("feature 'values' must be finite numbers")
    raw.flags.writeable = False
    return (raw, w) if stack else PdfFeature(grid, raw[0], float(w[0]))


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
