"""ASCII reporting helpers shared by the experiment runners."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table (numbers right-aligned, text left-aligned)."""
    cells = [[_fmt(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = []
    if title:
        out.append(title)
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.append(head)
    out.append("-" * len(head))
    for row, raw in zip(cells, rows):
        out.append(
            "  ".join(
                c.rjust(w) if _is_number(x) else c.ljust(w)
                for c, w, x in zip(row, widths, raw)
            )
        )
    return "\n".join(out)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[object], *, width: int = 48
) -> str:
    """One named (x, y) series with a unicode sparkline (figure stand-in)."""
    vals = [float(y) for y in ys]
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 1.0)
    span = (hi - lo) or 1.0
    blocks = "▁▂▃▄▅▆▇█"
    # resample to `width` points
    if len(vals) > width:
        step = len(vals) / width
        sampled = [vals[int(i * step)] for i in range(width)]
    else:
        sampled = vals
    spark = "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled
    )
    return f"{name}: n={len(vals)} min={lo:.3g} max={hi:.3g}\n  {spark}"


def _fmt(x: object) -> str:
    """A float to four significant digits, in scientific notation
    outside [1e-3, 1000); a bool as ``yes``/``no``; anything else as
    ``str``."""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1000 or abs(x) < 1e-3:
            return f"{x:.3e}"
        return f"{x:#.4g}".rstrip(".")
    return str(x)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)
