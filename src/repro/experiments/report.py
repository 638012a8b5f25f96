"""Text-table rendering for the experiment harnesses.

The recorded EXPERIMENTS.md tables are rendered with :func:`text_table`;
keep the format stable so regenerated reports diff cleanly against it.
"""

from __future__ import annotations


def text_table(title: str, headers: list, rows: list) -> str:
    """Monospace table: ``col | col`` cells, ``----+----`` separator."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts, pad):
        return (pad.join(p.ljust(w) for p, w in zip(parts, widths))).rstrip()
    out = [title]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    out.append("-+-".join("-" * w for w in widths))
    for r in cells:
        out.append(line(r, " | "))
    return "\n".join(out)


def human_count(n: float) -> str:
    """169T-style human-readable magnitudes (3 significant digits)."""
    n = float(n)
    for div, suffix in ((1e15, "P"), (1e12, "T"), (1e9, "G"),
                        (1e6, "M"), (1e3, "K")):
        if abs(n) >= div:
            return f"{n / div:.3g}{suffix}"
    return f"{n:.3g}"


def human_bytes(n: float) -> str:
    return human_count(n)


def pct(x: float, digits: int = 1) -> str:
    return f"{100.0 * x:.{digits}f}%"
