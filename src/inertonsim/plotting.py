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
O(samples), and it takes them one block of rows at a time. It is
pixel-exact at its native 760x420 size for a 1-px line; the 1.5-px stroke
and zoomed views are approximations. ``phase.svg`` has no increasing axis
and draws every sample, one chunk of rows at a time.
"""

from __future__ import annotations

import numpy as np

from . import _text
from .dynamics import ROW_BLOCK

_COLORS = ("#1a6fb5", "#c4443c", "#3d8d4e", "#8a5bb8")
# panel margins around the plot box in px: left, right, top, bottom
_MARGINS = (64, 16, 34, 46)
# render_line_svg's default width, and the pixel columns of its plot box
_WIDTH = 760
_COLUMNS = _WIDTH - _MARGINS[0] - _MARGINS[1]


# Points per chunk of the polyline writer and of the phase panel.
_CHUNK = _text.CHUNK_ROWS // 2


def _write_points(fh, chunks, px, py) -> None:
    """Write polyline points ``px(x),py(y) px(x),py(y) ...`` at two
    decimals (``%.2f``) for the ``(x, y)`` pairs of arrays ``chunks``:
    ``px`` and ``py`` are applied one chunk at a time, and each chunk's x
    and y are rendered as one block by `_text.rows`, in chunks of `_CHUNK`
    points."""
    sep = b""
    for x, y in chunks:
        for i in range(0, len(x), _CHUNK):
            block = np.stack([px(x[i:i + _CHUNK]), py(y[i:i + _CHUNK])], axis=1)
            fh.write(sep)
            fh.write(memoryview(_text.rows(_text.f2, block, end=b" "))[:-1])
            sep = b" "


def render_line_svg(
    path,
    series,
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = _WIDTH,
    height: int = 420,
) -> None:
    """Write one SVG panel. ``series`` holds ``(chunks, label)`` pairs:
    ``chunks()`` returns the series' points as ``(x, y)`` pairs of float
    arrays, and is called once for the ranges and once for the points."""
    ml, mr, mt, mb = _MARGINS
    pw, ph = width - ml - mr, height - mt - mb

    # ranges from each chunk's extremes; a NaN propagates
    ends = np.array([[f(v) for v in (x, y) for f in (np.min, np.max)] for chunks, _ in series for x, y in chunks()])
    x_lo, y_lo = np.min(ends[:, ::2], axis=0).tolist()
    x_hi, y_hi = np.max(ends[:, 1::2], axis=0).tolist()
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
        for idx, (chunks, label) in enumerate(series):
            color = _COLORS[idx % len(_COLORS)]
            fh.write(b'<polyline points="')
            _write_points(fh, chunks(), px, py)
            lx, ly = ml + pw - 130, mt + 16 + 16 * idx
            fh.write(
                f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{lx + 28}" y="{ly}">{label}</text>\n'.encode()
            )
        fh.write(b"</svg>\n")


def _m4(x: np.ndarray, y: np.ndarray, columns: int, span: tuple[float, float]):
    """Index of the M4 points of the line through ``(x, y)``, ``x``
    non-decreasing: in each of ``columns`` pixel columns, the first, last,
    lowest and highest point, in order. A point's column is
    ``floor((x - x_lo) / (x_hi - x_lo) * columns)`` over the range ``span
    = (x_lo, x_hi)`` of the whole line; ``x == x_hi`` goes in the last
    column. The kept points hold each column's extremes and both ends of
    the line, so they set the same axis ranges; on a piece of the line,
    they hold those of each column's part in it. A series with a non-finite
    value keeps every point (``slice(None)``)."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return slice(None)
    x_lo, x_hi = span
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
    series cut to its M4 points (`_m4`) before rendering. The rows are
    derived one block of `ROW_BLOCK` samples at a time, each block is cut to
    the M4 points of its part of each pixel column, over the whole run's
    range (``t/T`` is increasing, so that range is its first and last
    sample's), and the points kept from every block are cut once more: they
    hold the extremes and ends of each whole column. A block with a
    non-finite value keeps all its points."""
    n, T = len(traj), traj.params.T
    span = (0.0, (n - 1) * traj.dt / T)
    kept = [[], []]
    for lo in range(0, n, ROW_BLOCK):
        tau = np.arange(lo, min(lo + ROW_BLOCK, n)) * traj.dt / T
        for parts, y in zip(kept, traj.rows(lo, lo + ROW_BLOCK, ("xi", "chi"))):
            keep = _m4(tau, y, _COLUMNS, span)
            parts.append((tau[keep], y[keep]))
    series = []
    for parts, label in zip(kept, ("X / lambda", "x / Lambda")):
        x, y = (np.concatenate(v) for v in zip(*parts))
        keep = _m4(x, y, _COLUMNS, span)
        series.append((lambda points=[(x[keep], y[keep])]: points, label))
    render_line_svg(
        path,
        series,
        title="particle coordinate and cloud separation",
        xlabel="t / T",
        ylabel="dimensionless position",
    )


def phase_plane_svg(traj, path) -> None:
    """Velocity-plane portrait: the pair traces the unit circle in the
    coordinates (1 - dXdt/v0, dxdt/c), derived one chunk of `_CHUNK` samples
    at a time. The abscissa is ``1 - V``, which can differ from ``Re w`` in
    the last bit."""

    def chunks():
        for lo in range(0, len(traj), _CHUNK):
            V, U = traj.rows(lo, lo + _CHUNK, ("V", "U"))
            yield np.subtract(1.0, V, out=V), U

    render_line_svg(
        path,
        [(chunks, "velocity locus")],
        title="velocity-plane portrait",
        xlabel="1 - (dX/dt) / v0",
        ylabel="(dx/dt) / c",
        width=480,
        height=480,
    )
