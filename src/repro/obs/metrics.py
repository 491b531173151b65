"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The instrumentation layer the hot kernels talk to.  Design constraints,
in order:

1. **Cheap when on.**  Metrics are acquired once per algorithm run (a
   dict lookup), never per move; kernels accumulate plain local ints and
   flush them with one :meth:`Counter.inc` per pass/temperature.  A
   metric operation is one attribute add — no locks, no string
   formatting, no time syscalls.
2. **Free when off.**  ``REPRO_OBS=0`` makes the module-level factories
   (:func:`counter`, :func:`gauge`, :func:`histogram`) return a shared
   no-op object whose methods do nothing, so instrumented code needs no
   ``if`` guards of its own.
3. **Zero dependencies.**  Snapshots are plain dicts;
   :func:`prometheus_text` renders one (the registry's own, or a run
   ledger's sections) in the Prometheus text exposition format with
   nothing but string joins.

Metric identity is ``name`` plus an optional frozen label set; the same
identity always returns the same object, and re-registering a name as a
different metric type raises.  Names follow the Prometheus convention:
``snake_case``, counters suffixed ``_total``, timings suffixed
``_seconds``.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "histogram_quantile",
    "obs_enabled",
    "parse_series",
    "prometheus_text",
]

# Default histogram buckets: wall-time seconds spanning sub-millisecond
# kernels to multi-minute anneals.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)
# Ratio buckets for anything in [0, 1] (acceptance ratios, utilization).
RATIO_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def obs_enabled() -> bool:
    """True unless ``REPRO_OBS=0`` (instrumentation is on by default).

    Checked when a metric is *acquired* (once per algorithm run), not at
    import time, so tests can flip the variable per call.
    """
    return os.environ.get("REPRO_OBS", "1") != "0"


class _Noop:
    """Shared do-nothing stand-in for every metric type when obs is off."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def dec(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def __repr__(self) -> str:
        return "NOOP"


NOOP = _Noop()


class Counter:
    """Monotonically increasing count (``inc`` only)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that can go up and down (``set``/``inc``/``dec``)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are ascending upper bounds; every observation also lands
    in the implicit ``+Inf`` bucket, so ``counts`` has
    ``len(buckets) + 1`` entries and ``counts[-1] == count``.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} buckets must be ascending, got {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Observe an iterable of values in one call.

        Equivalent to calling :meth:`observe` per element; exists so that
        post-run flush code can hand over a whole trace without writing a
        metric call inside a loop (the R004 hot-loop contract).
        """
        for value in values:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.total += value
            self.count += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


def histogram_quantile(
    buckets: list[float] | tuple[float, ...],
    counts: list[int] | tuple[int, ...],
    q: float,
) -> float | None:
    """Estimate the ``q``-quantile of a fixed-bucket histogram snapshot.

    ``buckets`` are the ascending upper bounds and ``counts`` the per-bucket
    (non-cumulative) counts including the trailing ``+Inf`` bucket, exactly
    as :meth:`Histogram.snapshot` lays them out.  The estimate interpolates
    linearly inside the target bucket (Prometheus ``histogram_quantile``
    convention); observations in the ``+Inf`` bucket clamp to the largest
    finite bound.  Returns ``None`` for an empty histogram, and also when
    every observation sits in the ``+Inf`` bucket of a snapshot with no
    finite bounds — there is no value to clamp to.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            if index >= len(buckets):  # +Inf bucket: clamp to last bound
                return float(buckets[-1]) if buckets else None
            lower = float(buckets[index - 1]) if index else 0.0
            upper = float(buckets[index])
            fraction = (rank - previous) / bucket_count
            return lower + (upper - lower) * fraction
    return float(buckets[-1]) if buckets else None


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


# A snapshot series name is ``name`` or ``name{k="v",...}`` (labels are
# rendered sorted by _series_name).
_SERIES_RE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?$')
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')


def parse_series(series: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot series name back into ``(name, labels)``.

    Inverse of :func:`_series_name`; label values were stringified on the
    way in, so round-tripping (through a worker shipment, say) keeps
    series identity exact.
    """
    match = _SERIES_RE.match(series)
    if match is None:
        raise ValueError(f"unparseable metric series name: {series!r}")
    name, inner = match.groups()
    labels = dict(_LABEL_RE.findall(inner)) if inner else {}
    return name, labels


_SECTION_KINDS = (("counters", "counter"), ("gauges", "gauge"), ("histograms", "histogram"))


def _sample(value: Any) -> str:
    """A sample value as text: integers exactly, floats at full precision."""
    return repr(value) if isinstance(value, float) else str(int(value))


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """The Prometheus text exposition of a snapshot's three sections.

    ``snapshot`` is laid out like :meth:`MetricsRegistry.snapshot`, as a
    run ledger's ``counters``/``gauges``/``histograms`` sections are.
    Series are sorted by name, then labels; each metric family gets one
    ``# TYPE`` line however many labelled series it has, and histogram
    series keep their labels on every ``_bucket``/``_sum``/``_count`` line.
    """
    series = []
    for section, kind in _SECTION_KINDS:
        for text, value in snapshot.get(section, {}).items():
            name, labels = parse_series(text)
            series.append((name, tuple(labels.items()), kind, value))
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, kind, value in sorted(series, key=lambda entry: entry[:2]):
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)
        if kind != "histogram":
            lines.append(f"{_series_name(name, labels)} {_sample(value)}")
            continue
        cumulative = 0
        bounds = list(value.get("buckets", [])) + ["+Inf"]
        for bound, bucket_count in zip(bounds, value.get("counts", [])):
            cumulative += bucket_count
            bucket = _series_name(f"{name}_bucket", labels + (("le", str(bound)),))
            lines.append(f"{bucket} {cumulative}")
        total = _sample(value.get("sum", 0))
        lines.append(f"{_series_name(f'{name}_sum', labels)} {total}")
        lines.append(f"{_series_name(f'{name}_count', labels)} {value.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsRegistry:
    """Name -> metric table with get-or-create factories and exporters."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    def _get(self, cls, name: str, labels: dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        if buckets is None:
            key = (name, _label_key(labels))
            existing = self._metrics.get(key)
            if isinstance(existing, Histogram):
                return existing
            buckets = DEFAULT_SECONDS_BUCKETS
        return self._get(Histogram, name, labels, buckets=tuple(buckets))

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        self._metrics.clear()

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict export: ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``.

        Keys are Prometheus-style series names (labels rendered inline),
        which keeps the ledger JSON flat and diffable.
        """
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), metric in sorted(self._metrics.items()):
            out[metric.kind + "s"][_series_name(name, labels)] = metric.snapshot()
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for everything registered."""
        return prometheus_text(self.snapshot())


#: The process-wide default registry every instrumented module uses.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter | _Noop:
    """Get-or-create a counter on the default registry (no-op when off)."""
    if not obs_enabled():
        return NOOP
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge | _Noop:
    """Get-or-create a gauge on the default registry (no-op when off)."""
    if not obs_enabled():
        return NOOP
    return REGISTRY.gauge(name, **labels)


def histogram(
    name: str, buckets: tuple[float, ...] | None = None, **labels: Any
) -> Histogram | _Noop:
    """Get-or-create a histogram on the default registry (no-op when off)."""
    if not obs_enabled():
        return NOOP
    return REGISTRY.histogram(name, buckets=buckets, **labels)
