"""Run-summary rendering: telemetry + metrics -> Markdown / JSON.

:class:`TelemetryReport` turns the raw observability outputs of one run
(a :class:`~repro.obs.telemetry.RunTelemetry` stream and optionally a
:class:`~repro.obs.metrics.MetricsRegistry`) into the summary an
architect actually reads: simulations used, the cross-validation error
trajectory (the paper's stopping signal), and seconds per phase — the
quantities of Table 5.1 and Figure 5.8 for *this* run.  The JSON form is
the stable machine-readable format CI diffs and the ``--telemetry-out``
flag writes; the Markdown form replaces the ad-hoc summary prints the
examples used to carry.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .atomicio import atomic_write_text
from .metrics import MetricsRegistry
from .telemetry import PhaseStats, RunTelemetry

#: bump when the report document layout changes incompatibly
SCHEMA_VERSION = 1


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def phase_table(phases: Dict[str, PhaseStats]) -> List[str]:
    """Markdown table of a phase tree, one row per ``/``-joined path.

    Rows come in tree order: each parent, then its children, siblings
    in first-entry order.  A row's share is its total over its parent's;
    top-level rows share the summed top-level time.  Allocation columns
    appear when any phase was traced.
    """
    order = {path: i for i, path in enumerate(phases)}

    def tree_key(path: str) -> tuple:
        parts = path.split("/")
        return tuple(
            order.get("/".join(parts[:k]), order[path])
            for k in range(1, len(parts) + 1)
        )

    def parent(path: str) -> Optional[PhaseStats]:
        return phases.get(path.rpartition("/")[0])

    top_total = sum(
        stats.total_s for path, stats in phases.items() if parent(path) is None
    )
    alloc = any(stats.alloc_peak_kb is not None for stats in phases.values())
    lines = [
        "| phase | calls | total | share |"
        + (" peak alloc | net alloc |" if alloc else ""),
        "|---|---:|---:|---:|" + ("---:|---:|" if alloc else ""),
    ]
    for path in sorted(phases, key=tree_key):
        stats = phases[path]
        whole = top_total if parent(path) is None else parent(path).total_s
        share = 100.0 * stats.total_s / whole if whole else 0.0
        row = (
            f"| {path} | {stats.count} "
            f"| {_fmt_seconds(stats.total_s)} | {share:.1f}% |"
        )
        if alloc and stats.alloc_peak_kb is not None:
            row += (
                f" {stats.alloc_peak_kb:,.1f} KB "
                f"| {stats.alloc_net_kb:+,.1f} KB |"
            )
        elif alloc:
            row += " - | - |"
        lines.append(row)
    return lines


class TelemetryReport:
    """Render one run's telemetry (and metrics) as Markdown or JSON.

    Parameters
    ----------
    telemetry:
        The run's event stream.
    metrics:
        Optional registry whose counters/timers are folded into the
        report.
    title:
        Heading used by the Markdown rendering.
    """

    def __init__(
        self,
        telemetry: RunTelemetry,
        metrics: Optional[MetricsRegistry] = None,
        title: str = "Run report",
    ):
        self.telemetry = telemetry
        self.metrics = metrics
        self.title = title

    # -- structured views ---------------------------------------------
    def iterations(self) -> List[Dict[str, object]]:
        """The exploration trajectory: one row per ``explore.round``."""
        rows = []
        for event in self.telemetry.events_named("explore.round"):
            row = dict(event.payload)
            row["t"] = event.t
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, object]:
        """Headline quantities of the run (Table 5.1's columns)."""
        iterations = self.iterations()
        done = self.telemetry.events_named("explore.done")
        out: Dict[str, object] = {
            "n_iterations": len(iterations),
            "elapsed_s": self.telemetry.elapsed_s,
        }
        if iterations:
            last = iterations[-1]
            out["n_simulations"] = last.get("n_simulations")
            out["final_error_mean"] = last.get("error_mean")
            out["final_error_std"] = last.get("error_std")
        if done:
            out.update(done[-1].payload)
        return out

    def to_dict(self) -> Dict[str, object]:
        """The full report document (the ``--telemetry-out`` format)."""
        doc: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "summary": self.summary(),
            "iterations": self.iterations(),
            "telemetry": self.telemetry.to_dict(),
        }
        if self.metrics is not None:
            doc["metrics"] = self.metrics.to_dict()
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        """:meth:`to_dict` as JSON text, ``phases`` in first-entry order."""
        return json.dumps(self.to_dict(), indent=indent)

    # -- human view ----------------------------------------------------
    def to_markdown(self) -> str:
        """Markdown run summary: headline, trajectory table, phase table."""
        lines = [f"# {self.title}", ""]

        summary = self.summary()
        if summary.get("n_simulations") is not None:
            lines.append(f"- simulations: **{summary['n_simulations']}**")
        if summary.get("final_error_mean") is not None:
            lines.append(
                "- final CV error estimate: "
                f"**{summary['final_error_mean']:.2f}% "
                f"+/- {summary['final_error_std']:.2f}%**"
            )
        if "converged" in summary:
            status = "converged" if summary["converged"] else "budget exhausted"
            lines.append(f"- outcome: **{status}**")
        lines.append(f"- wall time: **{_fmt_seconds(summary['elapsed_s'])}**")
        lines.append("")

        iterations = self.iterations()
        if iterations:
            lines += [
                "## Error-estimate trajectory",
                "",
                "| round | simulations | estimated error | round time |",
                "|---:|---:|---:|---:|",
            ]
            for i, row in enumerate(iterations, 1):
                error = (
                    f"{row['error_mean']:.2f}% +/- {row['error_std']:.2f}%"
                    if row.get("error_mean") is not None
                    else "-"
                )
                lines.append(
                    f"| {i} | {row.get('n_simulations', '-')} | {error} "
                    f"| {_fmt_seconds(float(row.get('elapsed_s', 0.0)))} |"
                )
            lines.append("")

        if self.telemetry.phases:
            lines += ["## Time per phase", ""]
            lines += phase_table(self.telemetry.phases)
            lines.append("")

        if self.metrics is not None and self.metrics.counters:
            lines += ["## Counters", ""]
            for name in sorted(self.metrics.counters):
                value = self.metrics.counter(name)
                rendered = (
                    f"{int(value):,}" if value == int(value) else f"{value:,.3f}"
                )
                lines.append(f"- `{name}` = {rendered}")
            lines.append("")

        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write the report to ``path``: Markdown for ``.md``, JSON else.

        The write is atomic (write-temp-then-rename), so an interrupted
        run never leaves a truncated report behind.
        """
        text = (
            self.to_markdown() if path.endswith(".md") else self.to_json()
        )
        if not text.endswith("\n"):
            text += "\n"
        atomic_write_text(path, text)
