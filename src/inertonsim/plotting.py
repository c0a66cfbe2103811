"""Minimal self-contained SVG line plots (no plotting dependency).

Batch runs want a quick look at the motion without dragging in a plotting
stack, so this writes plain SVG by hand: axes, a handful of ticks, one
polyline per series and a small legend. The trajectory CSVs remain the
canonical data (and load directly into gnuplot); these files are just the
glanceable rendering.

``trajectory.svg`` keeps, of each series, the M4 points of each of its 680
pixel columns: the first, last, lowest and highest point (Jugel, Jerzak,
Hackenbroich & Markl, "M4: A Visualization-Oriented Time Series Data
Aggregation", PVLDB 7(10), 2014). So it costs O(pixel columns), not
O(samples). It is pixel-exact at its native 760x420 size for a 1-px line;
the 1.5-px stroke and zoomed views are approximations. ``phase.svg`` has
no increasing axis and draws every sample.
"""

from __future__ import annotations

import numpy as np

from . import _text

_COLORS = ("#1a6fb5", "#c4443c", "#3d8d4e", "#8a5bb8")
# panel margins around the plot box in px: left, right, top, bottom
_MARGINS = (64, 16, 34, 46)
# render_line_svg's default width, and the pixel columns of its plot box
_WIDTH = 760
_COLUMNS = _WIDTH - _MARGINS[0] - _MARGINS[1]


def _write_points(fh, x: np.ndarray, y: np.ndarray) -> None:
    """Write polyline points ``x,y x,y ...`` at two decimals (``%.2f``),
    rendered by `_text.f2` in chunks of `_text.CHUNK_ROWS` points."""
    step = _text.CHUNK_ROWS
    for i in range(0, len(x), step):
        text = _text.rows([_text.f2(x[i:i + step]), _text.f2(y[i:i + step])], end=b" ")
        fh.write(text if i + step < len(x) else text[:-1])


def render_line_svg(
    path,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = _WIDTH,
    height: int = 420,
) -> None:
    """Write one SVG panel. ``series`` holds ``(x, y, label)`` triples."""
    ml, mr, mt, mb = _MARGINS
    pw, ph = width - ml - mr, height - mt - mb

    # ranges from each series' extremes; a NaN propagates
    x_lo, x_hi = (float(f([f(x) for x, _, _ in series])) for f in (np.min, np.max))
    y_lo, y_hi = (float(f([f(y) for _, y, _ in series])) for f in (np.min, np.max))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # frame and ticks
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>'
    )
    for tx in np.linspace(x_lo, x_hi, 5):
        X = px(tx)
        parts.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{X:.1f}" y="{mt + ph + 18}" text-anchor="middle">{tx:.3g}</text>')
    for ty in np.linspace(y_lo, y_hi, 5):
        Y = py(ty)
        parts.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end">{ty:.3g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    with open(path, "wb") as fh:
        fh.write("".join(part + "\n" for part in parts).encode())
        # data: the points go straight from the renderer to the file
        for idx, (x, y, label) in enumerate(series):
            color = _COLORS[idx % len(_COLORS)]
            fh.write(b'<polyline points="')
            _write_points(fh, px(np.asarray(x, dtype=float)), py(np.asarray(y, dtype=float)))
            lx, ly = ml + pw - 130, mt + 16 + 16 * idx
            fh.write(
                f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{lx + 28}" y="{ly}">{label}</text>\n'.encode()
            )
        fh.write(b"</svg>\n")


def _m4(x: np.ndarray, y: np.ndarray, columns: int):
    """Index of the M4 points of the line through ``(x, y)``, ``x``
    non-decreasing: in each of ``columns`` pixel columns, the first, last,
    lowest and highest point, in order. A point's column is
    ``floor((x - x_lo) / (x_hi - x_lo) * columns)`` over the range that
    `render_line_svg` gives ``x``; ``x == x_hi`` goes in the last column.
    The kept points hold each column's extremes and both ends of the line,
    so they set the same axis ranges. A series with a non-finite value
    keeps every point (``slice(None)``)."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return slice(None)
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    # a point's position across the plot box, in px, is non-decreasing: so
    # column k starts at the first point with pos >= k, and a column that no
    # point reaches "starts" at the next column's start or at len(x)
    pos = (x - x_lo) / (x_hi - x_lo) * columns
    keep = np.zeros(len(x) + 1, dtype=bool)
    keep[np.searchsorted(pos, np.arange(columns))] = True
    del pos
    starts = np.flatnonzero(keep[:-1])
    counts = np.diff(starts, append=len(x))
    keep[starts + counts - 1] = True
    for ufunc in (np.minimum, np.maximum):
        # the first point of each column at the column's extreme
        hit = np.flatnonzero(y == np.repeat(ufunc.reduceat(y, starts), counts))
        keep[hit[np.searchsorted(hit, starts)]] = True
    return np.flatnonzero(keep[:-1])


def trajectory_svg(traj, path) -> None:
    """Dimensionless trajectory panel: X/lam and x/Lam against t/T, each
    series cut to its M4 points (`_m4`) before rendering."""
    tau = np.arange(len(traj.xi)) * traj.dt / traj.params.T
    series = []
    for y, label in ((traj.xi, "X / lambda"), (traj.chi, "x / Lambda")):
        keep = _m4(tau, y, _COLUMNS)
        series.append((tau[keep], y[keep], label))
    render_line_svg(
        path,
        series,
        title="particle coordinate and cloud separation",
        xlabel="t / T",
        ylabel="dimensionless position",
    )


def phase_plane_svg(traj, path) -> None:
    """Velocity-plane portrait: the pair traces the unit circle in the
    coordinates (1 - dXdt/v0, dxdt/c)."""
    render_line_svg(
        path,
        [(1.0 - traj.V, traj.U, "velocity locus")],
        title="velocity-plane portrait",
        xlabel="1 - (dX/dt) / v0",
        ylabel="(dx/dt) / c",
        width=480,
        height=480,
    )
