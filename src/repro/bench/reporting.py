"""Plain-text rendering of experiment series (paper-figure style tables)."""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import Series

__all__ = ["format_series_table", "format_kv_block"]


def format_series_table(
    title: str,
    series: Sequence[Series],
    show_speedup: bool = True,
    show_comm: bool = False,
) -> str:
    """Render curves as one aligned text table, x values as rows."""
    if not series:
        return f"{title}\n  (no data)"
    xs = sorted({pt.x for s in series for pt in s.points})
    x_name = series[0].x_name
    headers = [x_name]
    for s in series:
        headers.append(f"{s.label} [s]")
        if show_speedup:
            headers.append(f"{s.label} [speedup]")
        if show_comm:
            headers.append(f"{s.label} [MB]")
    rows = []
    for x in xs:
        row = [_fmt(x)]
        for s in series:
            pt = next((q for q in s.points if q.x == x), None)
            row.append("-" if pt is None else f"{pt.seconds:.2f}")
            if show_speedup:
                row.append(
                    "-" if pt is None or pt.speedup is None
                    else f"{pt.speedup:.2f}"
                )
            if show_comm:
                row.append(
                    "-" if pt is None or pt.comm_mb is None
                    else f"{pt.comm_mb:.2f}"
                )
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows))
        for c in range(len(headers))
    ]
    lines = [title]
    lines.append("  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_kv_block(title: str, pairs: Sequence[tuple[str, str]]) -> str:
    """Render scalar findings (headline numbers) as an aligned block."""
    width = max((len(k) for k, _ in pairs), default=0)
    lines = [title]
    for key, value in pairs:
        lines.append(f"  {key.ljust(width)} : {value}")
    return "\n".join(lines)


def _fmt(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"
