"""Plain-text rendering of experiment series (paper-figure style tables)."""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import Series

__all__ = ["format_series_table", "format_kv_block", "format_shm_pool"]


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


def format_shm_pool(title: str, pool: dict) -> str:
    """Render the process backend's data-plane counters
    (:attr:`repro.config.RunResult.shm_pool`) as a findings block.

    Empty stats (thread backend) render as a one-line note so callers
    can print unconditionally.
    """
    if not pool:
        return f"{title}\n  (no shared-memory data plane: thread backend)"
    pairs = [
        ("segment leases", str(pool.get("leases", 0))),
        ("segments created", str(pool.get("segments_created", 0))),
        ("segments reused", str(pool.get("segments_reused", 0))),
        ("pool hit rate", f"{pool.get('hit_rate', 0.0):.1%}"),
        ("bytes created", f"{pool.get('bytes_created', 0) / 1e6:.2f} MB"),
        ("bytes reused", f"{pool.get('bytes_reused', 0) / 1e6:.2f} MB"),
        ("attaches", str(pool.get("attaches", 0))),
        ("attach reuses", str(pool.get("attach_reuses", 0))),
    ]
    return format_kv_block(title, pairs)


def _fmt(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"
