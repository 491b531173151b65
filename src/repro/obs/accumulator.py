"""Streaming distribution summaries for ensemble-scale studies.

A :class:`StreamingStats` accumulator folds a stream of integer
observations (cut sizes) into an exact ``{value: count}`` table —
count/mean/variance, min/max and quantiles all read from it — without
holding the per-run value list in memory.  It is the aggregation core
of the ``repro-bisect study`` command, where a single sweep feeds
hundreds of heuristic runs per cell into one accumulator each.

The table is bounded by the support, not the stream: a cell's cut sizes
are integers in ``[0, total edge weight]``, so it holds at most
``min(runs, total edge weight + 1)`` entries, and in practice a few
dozen (heuristic cut sizes form narrow integer distributions).
Summaries iterate values in sorted order, so the final summary is
exactly permutation invariant.

:func:`fit_lower_tail` fits a Weibull lower tail to the table — the
extreme-value model Schreiber & Martin use for cut-size distributions
of bisection heuristics — and :func:`best_of_k_extrapolation` turns the
fit into a predicted best cut over ``k`` independent runs, the
statistic the paper's best-of-R protocol samples at ``R = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "StreamingStats",
    "TailFit",
    "best_of_k_extrapolation",
    "fit_lower_tail",
]

#: Quantiles every summary reports.
SUMMARY_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

#: Decimal places for floats in :meth:`StreamingStats.summary` — coarse
#: enough that the sorted-order arithmetic is reproducible bit for bit,
#: fine enough for any statistical use downstream.
SUMMARY_DIGITS = 9


class StreamingStats:
    """Single-pass distribution summary over an exact integer count table."""

    __slots__ = ("count", "min", "max", "_counts")

    def __init__(self) -> None:
        self.count = 0
        self.min: int | None = None
        self.max: int | None = None
        self._counts: dict[int, int] = {}

    # -- ingestion ----------------------------------------------------------------

    def add(self, value: int) -> None:
        """Fold one integer observation into the summary."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"StreamingStats counts integers, got {value!r}")
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._counts[value] = self._counts.get(value, 0) + 1

    def add_many(self, values) -> None:
        for value in values:
            self.add(value)

    # -- readout ------------------------------------------------------------------

    @property
    def mean(self) -> float | None:
        if self.count == 0:
            return None
        return sum(v * c for v, c in sorted(self._counts.items())) / self.count

    @property
    def variance(self) -> float | None:
        """Sample variance (n-1 denominator); ``None`` below two values."""
        if self.count < 2:
            return None
        mean = self.mean
        squares = sum(c * (v - mean) ** 2 for v, c in sorted(self._counts.items()))
        return squares / (self.count - 1)

    @property
    def std(self) -> float | None:
        variance = self.variance
        return math.sqrt(variance) if variance is not None else None

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (linear interpolation between closest ranks)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * (self.count - 1)
        low_rank = int(math.floor(rank))
        fraction = rank - low_rank
        high_rank = min(low_rank + 1, self.count - 1)
        low = high = None
        cumulative = 0
        for value in sorted(self._counts):
            cumulative += self._counts[value]
            if low is None and cumulative > low_rank:
                low = value
            if cumulative > high_rank:
                high = value
                break
        if not fraction:
            return float(low)
        return low + fraction * (high - low)

    def value_counts(self) -> dict[int, int]:
        """The ``{value: count}`` table, in ascending value order."""
        return dict(sorted(self._counts.items()))

    def summary(self) -> dict[str, Any]:
        """The bounded, JSON-ready summary the study ledger stores.

        Floats are rounded to :data:`SUMMARY_DIGITS`; every field is a
        deterministic function of the value multiset, so the summary is
        permutation invariant.
        """
        if self.count == 0:
            return {"count": 0}
        out: dict[str, Any] = {
            "count": self.count,
            "mean": round(self.mean, SUMMARY_DIGITS),
            "std": round(self.std, SUMMARY_DIGITS) if self.count >= 2 else None,
            "min": self.min,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            out[f"q{int(q * 100):02d}"] = round(self.quantile(q), SUMMARY_DIGITS)
        return out


# -- extreme-value tail fit --------------------------------------------------------


@dataclass(frozen=True)
class TailFit:
    """A Weibull lower-tail fit ``F(x) ≈ ((x - location) / scale) ** shape``.

    ``points`` is how many empirical CDF points entered the regression;
    ``r_squared`` is the regression's coefficient of determination in
    log-log space (1.0 = the tail is exactly Weibull).
    """

    location: float
    scale: float
    shape: float
    points: int
    r_squared: float

    def quantile(self, p: float) -> float:
        """The model's ``p``-quantile (valid for small ``p`` — the tail)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"tail quantile must be in (0, 1), got {p}")
        return self.location + self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)

    def to_dict(self) -> dict[str, Any]:
        return {
            "location": round(self.location, SUMMARY_DIGITS),
            "scale": round(self.scale, SUMMARY_DIGITS),
            "shape": round(self.shape, SUMMARY_DIGITS),
            "points": self.points,
            "r_squared": round(self.r_squared, SUMMARY_DIGITS),
        }


def fit_lower_tail(
    stats: StreamingStats,
    tail_fraction: float = 0.3,
    min_points: int = 3,
) -> TailFit | None:
    """Fit a Weibull to the lower tail of an accumulator's count table.

    Takes the empirical CDF points carrying the lowest ``tail_fraction``
    of the mass (always at least ``min_points`` distinct values when
    available), anchors the location just below the observed minimum, and
    regresses ``ln(-ln(1 - F))`` on ``ln(x - location)`` — the standard
    Weibull probability-plot linearization.  Returns ``None`` when the
    tail has too few distinct values to regress.
    """
    counts = stats.value_counts()
    if stats.count < 2 or len(counts) < min_points:
        return None
    location = float(stats.min) - 1.0
    xs: list[float] = []
    ys: list[float] = []
    cumulative = 0
    for value, bucket in counts.items():
        cumulative += bucket
        fraction = cumulative / stats.count
        if fraction >= 1.0:
            break  # ln(-ln(0)) is undefined; the top point never enters
        if fraction > tail_fraction and len(xs) >= min_points:
            break
        xs.append(math.log(value - location))
        ys.append(math.log(-math.log1p(-fraction)))
    if len(xs) < min_points:
        return None
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    shape = sxy / sxx
    if shape <= 0.0:
        return None
    intercept = mean_y - shape * mean_x
    scale = math.exp(-intercept / shape)
    syy = sum((y - mean_y) ** 2 for y in ys)
    r_squared = (sxy * sxy) / (sxx * syy) if syy > 0.0 else 1.0
    return TailFit(
        location=location,
        scale=scale,
        shape=shape,
        points=n,
        r_squared=r_squared,
    )


def best_of_k_extrapolation(
    fit: TailFit, ks: tuple[int, ...] = (10, 100, 1000)
) -> dict[str, float]:
    """Predicted best value over ``k`` independent runs, per the tail fit.

    The minimum of ``k`` i.i.d. draws sits near the ``1/k`` quantile; with
    a Weibull lower tail that is
    ``location + scale * (-ln(1 - 1/k)) ** (1/shape)``.  Keys are
    ``"k=<k>"`` for direct JSON embedding.

    Requires ``k >= 2``: the best of a single run is one draw whose
    expectation is the distribution mean, not a tail statistic, and the
    1/1 quantile is outside the fit's validity region.
    """
    out = {}
    for k in ks:
        if k < 2:
            raise ValueError(f"best-of-k needs k >= 2, got {k}")
        out[f"k={k}"] = round(fit.quantile(1.0 / k), SUMMARY_DIGITS)
    return out
