"""One self-contained HTML artifact for a whole run (`repro report`).

Renders everything the observatory knows about one simulated scheme —
metrics snapshot, per-domain inter-service (leakage) histograms,
certification verdicts, and span flamegraph summary — into a single
HTML file with inline CSS and no external resources, so the artifact
can be archived from CI and opened anywhere.

Everything is standard library: :mod:`html` for escaping, CSS bar
charts for histograms (no JS, no plotting dependency).  Sections whose
inputs are absent (e.g. no certificate) are omitted rather than
rendered empty.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e;
       line-height: 1.45; }
h1 { border-bottom: 3px solid #0f3460; padding-bottom: .3em; }
h2 { color: #0f3460; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; font-size: .92em; }
th, td { border: 1px solid #cbd5e1; padding: .3em .7em;
         text-align: left; }
th { background: #e2e8f0; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: inline-block; background: #16537e; height: .75em;
       vertical-align: baseline; }
.pass { color: #0a7d36; font-weight: 600; }
.fail { color: #b91c1c; font-weight: 600; }
.volatile { color: #92400e; }
.meta { color: #64748b; font-size: .85em; }
code { background: #f1f5f9; padding: 0 .25em; border-radius: 3px; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _section(title: str, body: str) -> str:
    return f"<h2>{_esc(title)}</h2>\n{body}"


def _table(headers: List[str], rows: List[List[str]]) -> str:
    """Rows hold pre-rendered cell HTML; headers are escaped here."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "\n".join("<tr>" + "".join(r) + "</tr>" for r in rows)
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>\n{body}\n</tbody></table>"
    )


def _td(value: object, cls: str = "") -> str:
    attr = f' class="{cls}"' if cls else ""
    return f"<td{attr}>{_esc(_fmt(value))}</td>"


# ----------------------------------------------------------------------
# Sections.
# ----------------------------------------------------------------------

def _metrics_section(registry) -> str:
    rows: List[List[str]] = []
    for metric in registry.metrics():
        for label, value in metric.snapshot_samples().items():
            if isinstance(value, dict):  # histogram sample
                value = (
                    f"count={value.get('count')} "
                    f"sum={_fmt(value.get('sum'))}"
                )
            rows.append([
                _td(metric.name,
                    "volatile" if metric.volatile else ""),
                _td(metric.kind),
                _td(label or "—"),
                _td(value, "num"),
            ])
    if not rows:
        return "<p>No metrics recorded.</p>"
    return _table(["metric", "kind", "labels", "value"], rows)


def _histogram_section(histograms: Dict[int, Dict[int, int]]) -> str:
    """Per-domain inter-service delta histograms as CSS bar charts.

    A Fixed Service scheme shows one dominant bar per domain (the fixed
    slot period); spread across many deltas is the visual signature of
    a timing channel.
    """
    parts: List[str] = []
    for domain in sorted(histograms):
        counts = histograms[domain]
        total = sum(counts.values()) or 1
        peak = max(counts.values(), default=1)
        rows = []
        for delta in sorted(counts):
            count = counts[delta]
            width = max(1, round(180 * count / peak))
            bar = (
                f'<td><span class="bar" '
                f'style="width:{width}px"></span> '
                f'{count} ({count / total:.1%})</td>'
            )
            rows.append([_td(delta, "num"), bar])
        parts.append(
            f"<h3>domain {domain} "
            f'<span class="meta">({total} intervals, '
            f"{len(counts)} distinct deltas)</span></h3>"
            + _table(["delta (cycles)", "frequency"], rows)
        )
    if not parts:
        return "<p>No service trace captured.</p>"
    return "\n".join(parts)


def _certificate_section(certificate) -> str:
    rows = []
    for v in certificate.verdicts:
        verdict = (
            '<td class="fail">error</td>' if v.error_type is not None
            else '<td class="pass">pass</td>' if v.passed
            else '<td class="fail">leak</td>'
        )
        rows.append([
            _td(v.strategy), _td(v.family), _td(v.trials, "num"),
            _td("yes" if v.exact_match else "no"),
            _td(v.mi_upper_bits, "num"),
            _td(v.capacity_bits, "num"),
            verdict,
        ])
    aggregate = (
        '<p class="pass">CERTIFIED</p>' if certificate.certified
        else '<p class="fail">NOT CERTIFIED</p>'
    )
    meta = (
        f'<p class="meta">scheme <code>{_esc(certificate.scheme)}</code>'
        f" · engine {_esc(certificate.engine)}"
        f" · ε = {_fmt(certificate.epsilon_bits)} bits"
        f" · {len(certificate.skipped)} skipped</p>"
    )
    return aggregate + meta + _table(
        ["strategy", "family", "trials", "exact", "MI upper (bits)",
         "capacity (bits)", "verdict"],
        rows,
    )


def _spans_section(summary: List[Dict[str, object]]) -> str:
    """Flamegraph-style aggregate: total self-clock per (category,
    name), bar-scaled within each category."""
    if not summary:
        return "<p>No spans recorded.</p>"
    peak_by_category: Dict[str, int] = {}
    for entry in summary:
        cat = str(entry["category"])
        peak_by_category[cat] = max(
            peak_by_category.get(cat, 1), int(entry["total"]) or 1
        )
    rows = []
    for entry in summary:
        cat = str(entry["category"])
        total = int(entry["total"])
        width = max(1, round(180 * total / peak_by_category[cat]))
        bar = (
            f'<td><span class="bar" style="width:{width}px"></span> '
            f"{total}</td>"
        )
        rows.append([
            _td(cat), _td(entry["name"]), _td(entry["count"], "num"),
            bar, _td(entry["max"], "num"),
        ])
    return _table(
        ["category", "span", "count", "total duration", "max"], rows
    )


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

def render_report(
    title: str,
    registry=None,
    histograms: Optional[Dict[int, Dict[int, int]]] = None,
    certificate=None,
    span_summary: Optional[List[Dict[str, object]]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    """Build the whole self-contained HTML document as a string.

    Every argument except ``title`` is optional; only sections with
    data are rendered.  ``histograms`` maps domain -> {delta: count}
    (what :func:`~repro.telemetry.report.inter_service_histogram`
    returns), ``span_summary`` is
    :meth:`~repro.telemetry.spans.SpanTracer.summary` output.
    """
    sections: List[str] = []
    if metadata:
        items = " · ".join(
            f"{_esc(k)}: <code>{_esc(v)}</code>"
            for k, v in sorted(metadata.items())
        )
        sections.append(f'<p class="meta">{items}</p>')
    if registry is not None:
        sections.append(
            _section("Metrics snapshot", _metrics_section(registry))
        )
    if histograms is not None:
        sections.append(_section(
            "Inter-service leakage histograms",
            _histogram_section(histograms),
        ))
    if certificate is not None:
        sections.append(_section(
            "Certification verdicts",
            _certificate_section(certificate),
        ))
    if span_summary is not None:
        sections.append(_section(
            "Span flamegraph summary", _spans_section(span_summary)
        ))
    body = "\n".join(sections) or "<p>Nothing to report.</p>"
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n{body}\n</body>\n</html>\n"
    )


def write_report(path: str, document: str) -> None:
    """Write a rendered report; path errors surface as
    :class:`~repro.errors.TelemetryError`."""
    from .collector import open_sink

    handle = open_sink(path)
    try:
        handle.write(document)
    finally:
        handle.close()


__all__ = ["render_report", "write_report"]
