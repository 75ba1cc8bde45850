"""A deterministic metrics registry: counters, gauges, histograms.

The registry is the unified export surface for every statistic the
simulation stack produces (controller counters, DRAM activity, fault and
monitor events, sweep aggregates, engine profiles).  Design constraints,
in order:

1. **Determinism.**  Two runs that produce the same simulated
   observables must produce byte-identical metric snapshots —
   ``tests/test_differential.py`` pins metric snapshots across the fast
   and reference engines.  Everything is therefore stored and exported
   in sorted order, and metrics that depend on wall-clock time (engine
   profiling) are flagged ``volatile`` and excluded from
   :meth:`MetricsRegistry.snapshot`.
2. **Zero third-party dependencies.**  The export formats are plain
   JSON (:meth:`MetricsRegistry.to_json_dict`) and Prometheus text
   exposition (:meth:`MetricsRegistry.to_prometheus`), both produced
   with the standard library only.
3. **Cheap when idle.**  An unreferenced registry costs nothing; the
   simulation hot paths guard every telemetry call behind a single
   ``is None`` check (see :mod:`repro.telemetry.session`).

Labels are passed as keyword arguments and validated against the
metric's declared label names, Prometheus-client style::

    faults = registry.counter(
        "faults_injected_total", "faults that struck", ("kind",)
    )
    faults.inc(kind="drop_command")
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TelemetryError

#: Default histogram bucket upper bounds (cycles-oriented powers of two).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
    4096, 16384, 65536, 262144, 1048576,
)


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, object], name: str
) -> Tuple[str, ...]:
    """Validate and canonicalize one sample's labels."""
    if set(labels) != set(labelnames):
        raise TelemetryError(
            f"metric {name!r} expects labels {sorted(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[k]) for k in labelnames)


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _escape_help(value: str) -> str:
    # Help text escapes only backslash and newline (exposition format
    # 0.0.4) — quotes stay literal.
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (ints stay ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
        and abs(value) < 2 ** 53
    ):
        return str(int(value))
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class Metric:
    """Base class: one named family of labeled samples."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        volatile: bool = False,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        #: Volatile metrics depend on wall-clock time (profiling); they
        #: are exported but excluded from determinism snapshots.
        self.volatile = volatile
        self._samples: Dict[Tuple[str, ...], object] = {}

    # -- introspection --------------------------------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Samples in deterministic (sorted label) order."""
        return sorted(self._samples.items())

    def value(self, **labels) -> object:
        """The sample value for one label set (0 when never touched)."""
        key = _label_key(self.labelnames, labels, self.name)
        return self._samples.get(key, 0)

    def _labels_text(self, key: Tuple[str, ...],
                     extra: str = "") -> str:
        parts = [
            f'{n}="{_escape(v)}"' for n, v in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def _help_line(self) -> str:
        if self.help_text:
            return (
                f"# HELP {self.name} {_escape_help(self.help_text)}"
            )
        return f"# HELP {self.name}"

    def expose(self) -> List[str]:
        """Prometheus text lines for this family.

        Every family gets its ``# HELP`` and ``# TYPE`` header —
        including help-less families (bare ``# HELP name``), as the
        exposition format expects one header pair per family.
        """
        lines = [self._help_line(), f"# TYPE {self.name} {self.kind}"]
        for key, value in self.samples():
            lines.append(
                f"{self.name}{self._labels_text(key)} "
                f"{_format_value(value)}"
            )
        return lines

    def snapshot_samples(self) -> Dict[str, object]:
        """JSON-friendly sample map keyed by a canonical label string."""
        out = {}
        for key, value in self.samples():
            label = ",".join(
                f"{n}={v}" for n, v in zip(self.labelnames, key)
            )
            out[label] = value
        return out


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = _label_key(self.labelnames, labels, self.name)
        self._samples[key] = self._samples.get(key, 0) + amount


class Gauge(Metric):
    """A value that can go up and down (set to the latest observation)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels, self.name)
        self._samples[key] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(self.labelnames, labels, self.name)
        self._samples[key] = self._samples.get(key, 0) + amount


class Histogram(Metric):
    """A bucketed distribution with exact ``sum`` and ``count``.

    Buckets are cumulative upper bounds, Prometheus style; ``+Inf`` is
    implicit.  Per label set the stored sample is a dict
    ``{"buckets": {le: count}, "sum": s, "count": n}``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ) -> None:
        super().__init__(name, help_text, labelnames, volatile)
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds:
            raise TelemetryError(
                f"histogram {self.name!r} needs at least one bucket"
            )
        self.bounds: Tuple[float, ...] = tuple(bounds)

    def _sample(self, key: Tuple[str, ...]) -> Dict[str, object]:
        """The label set's sample, created empty on first use."""
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = {
                "buckets": [0] * (len(self.bounds) + 1), "sum": 0,
                "count": 0,
            }
        return sample

    def observe(self, value: float, **labels) -> None:
        sample = self._sample(_label_key(self.labelnames, labels, self.name))
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        sample["buckets"][idx] += 1
        sample["sum"] += value
        sample["count"] += 1

    def expose(self) -> List[str]:
        lines = [self._help_line(), f"# TYPE {self.name} {self.kind}"]
        for key, sample in self.samples():
            cumulative = 0
            for bound, count in zip(self.bounds, sample["buckets"]):
                cumulative += count
                le = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket{self._labels_text(key, le)} "
                    f"{cumulative}"
                )
            cumulative += sample["buckets"][-1]
            inf = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{self._labels_text(key, inf)} "
                f"{cumulative}"
            )
            lines.append(
                f"{self.name}_sum{self._labels_text(key)} "
                f"{_format_value(sample['sum'])}"
            )
            lines.append(
                f"{self.name}_count{self._labels_text(key)} "
                f"{sample['count']}"
            )
        return lines

    def snapshot_samples(self) -> Dict[str, object]:
        out = {}
        for key, sample in self.samples():
            label = ",".join(
                f"{n}={v}" for n, v in zip(self.labelnames, key)
            )
            out[label] = {
                "buckets": {
                    _format_value(b): c
                    for b, c in zip(self.bounds, sample["buckets"])
                    if c
                },
                "overflow": sample["buckets"][-1],
                "sum": sample["sum"],
                "count": sample["count"],
            }
        return out


class MetricsRegistry:
    """A named collection of metrics with idempotent registration.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name returns the existing family (kind and label
    names must match — a mismatch is a programming error surfaced as
    :class:`~repro.errors.TelemetryError`).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- registration ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Sequence[str], volatile: bool,
                       **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls) or (
                metric.labelnames != tuple(labelnames)
            ):
                raise TelemetryError(
                    f"metric {name!r} re-registered with a different "
                    f"kind or label set"
                )
            return metric
        metric = cls(
            name, help_text, labelnames, volatile=volatile, **kwargs
        )
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = (),
                volatile: bool = False) -> Counter:
        return self._get_or_create(
            Counter, name, help_text, labelnames, volatile
        )

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = (),
              volatile: bool = False) -> Gauge:
        return self._get_or_create(
            Gauge, name, help_text, labelnames, volatile
        )

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  volatile: bool = False) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, volatile,
            buckets=buckets,
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    # -- merging --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's samples into this one, in place.

        The multiprocess sweep executor gives every worker cell its own
        registry and merges them back in deterministic (cell submission)
        order, so a ``workers=N`` grid exports the same aggregate
        artifact as a serial run.  Merge semantics per metric kind:

        * **counter** — sample values add (counts across cells sum);
        * **gauge** — the incoming value wins (last-writer, which the
          deterministic merge order makes reproducible);
        * **histogram** — per-bucket counts, ``sum`` and ``count`` add.

        A family present in both registries must agree on kind, label
        names and (for histograms) bucket bounds; a mismatch is a
        programming error surfaced as
        :class:`~repro.errors.TelemetryError`.  Returns ``self`` so
        merges chain.
        """
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                kwargs = {}
                if isinstance(theirs, Histogram):
                    kwargs["buckets"] = theirs.bounds
                mine = self._get_or_create(
                    type(theirs), name, theirs.help_text,
                    theirs.labelnames, theirs.volatile, **kwargs
                )
            elif type(mine) is not type(theirs) or (
                mine.labelnames != theirs.labelnames
            ):
                raise TelemetryError(
                    f"cannot merge metric {name!r}: kind or label set "
                    f"differs between registries"
                )
            elif isinstance(mine, Histogram) and (
                mine.bounds != theirs.bounds
            ):
                raise TelemetryError(
                    f"cannot merge histogram {name!r}: bucket bounds "
                    f"differ between registries"
                )
            for key, value in theirs.samples():
                if isinstance(mine, Histogram):
                    sample = mine._sample(key)
                    for i, count in enumerate(value["buckets"]):
                        sample["buckets"][i] += count
                    sample["sum"] += value["sum"]
                    sample["count"] += value["count"]
                elif isinstance(mine, Counter):
                    mine._samples[key] = (
                        mine._samples.get(key, 0) + value
                    )
                else:  # gauge / untyped: incoming value wins
                    mine._samples[key] = value
        return self

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> List[Metric]:
        """All families in deterministic (name) order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic view of every **non-volatile** metric.

        This is the object the differential suite compares across
        engines: wall-clock-dependent (volatile) profiling metrics are
        excluded, everything else must be bit-identical.
        """
        out: Dict[str, Dict[str, object]] = {}
        for metric in self.metrics():
            if metric.volatile:
                continue
            out[metric.name] = {
                "kind": metric.kind,
                "samples": metric.snapshot_samples(),
            }
        return out

    def to_json_dict(self) -> Dict[str, object]:
        """Full JSON export (volatile metrics included, flagged)."""
        metrics: Dict[str, object] = {}
        for metric in self.metrics():
            entry = {
                "kind": metric.kind,
                "help": metric.help_text,
                "samples": metric.snapshot_samples(),
            }
            if metric.volatile:
                entry["volatile"] = True
            metrics[metric.name] = entry
        return {"version": 1, "metrics": metrics}

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_json_dict(), indent=indent,
                          sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n" if lines else ""


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ("\\", '"'):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(text: str) -> Dict[str, str]:
    """Parse the ``k="v",...`` body of a label set (escapes honored)."""
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise TelemetryError(
                f"malformed label value near {text[i:]!r}"
            )
        j = eq + 2
        raw: List[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\" and j + 1 < len(text):
                raw.append(text[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise TelemetryError(
                f"unterminated label value near {text[i:]!r}"
            )
        labels[name] = _unescape_label("".join(raw))
        i = j + 1
    return labels


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition-format text back into family structures.

    Returns ``{family: {"help": str, "type": str, "samples":
    [(sample_name, labels_dict, value), ...]}}`` where histogram
    ``_bucket``/``_sum``/``_count`` samples fold into their family.
    The promtext round-trip test feeds :meth:`MetricsRegistry.
    to_prometheus` through this and checks nothing is lost or
    mis-escaped.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family_for(sample_name: str) -> Dict[str, object]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and trimmed in families:
                base = trimmed
                break
        return families.setdefault(
            base, {"help": "", "type": "untyped", "samples": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            entry = families.setdefault(
                name, {"help": "", "type": "untyped", "samples": []}
            )
            entry["help"] = _unescape_label(help_text)
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            entry = families.setdefault(
                name, {"help": "", "type": "untyped", "samples": []}
            )
            entry["type"] = kind.strip() or "untyped"
            continue
        if line.startswith("#"):
            continue  # comment
        if "{" in line:
            brace = line.index("{")
            sample_name = line[:brace]
            close = line.rfind("}")
            if close < brace:
                raise TelemetryError(
                    f"unterminated label set in sample {line!r}"
                )
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        try:
            value = _parse_number(value_text)
        except ValueError:
            raise TelemetryError(
                f"sample {line!r} has no parseable value"
            ) from None
        entry = family_for(sample_name)
        entry["samples"].append((sample_name, labels, value))
    return families


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "parse_prometheus_text",
]
