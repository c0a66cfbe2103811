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
and zoomed views are approximations. ``phase.svg`` has no increasing axis,
but every period of the pair runs the same half circle and the same
reflection chord. So it draws one period and the tail after the last
reflection when they lie within ``B <= 0.005`` px of every sample, half the
``%.2f`` quantum of its points, and every sample otherwise. ``B`` is the sum
of a radius term (the largest first-integral residual, which the divergence
guard's pass has measured), an arc term (twice the linear-interpolation
bound of the circle between samples) and a reflection-chord term (how far
each reflection's pair of samples lies from the first one's); see
`_period_bound`. Its axis ranges come from every sample, one block of rows
at a time, so all but its points are the bytes of the full rendering.
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
# The phase panel's width and height in px, and how far in px its reduced
# polyline may lie from the full one: half the %.2f quantum of its points.
_PHASE_SIZE = 480
_PHASE_SLACK = 0.005


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


def _ends(x: np.ndarray, y: np.ndarray) -> list:
    """``[x min, x max, y min, y max]`` of one chunk; a NaN propagates."""
    return [f(v) for v in (x, y) for f in (np.min, np.max)]


def _axes(ends) -> tuple[float, float, float, float]:
    """The axis ranges ``(x_lo, x_hi, y_lo, y_hi)`` of a panel from the
    `_ends` of each of its chunks: a flat range is widened to 1, and y is
    padded by 4 % of its range at each end. A NaN propagates."""
    ends = np.asarray(ends)
    x_lo, y_lo = np.min(ends[:, ::2], axis=0).tolist()
    x_hi, y_hi = np.max(ends[:, 1::2], axis=0).tolist()
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    return x_lo, x_hi, y_lo - pad, y_hi + pad


def render_line_svg(
    path,
    series,
    axes,
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = _WIDTH,
    height: int = 420,
) -> None:
    """Write one SVG panel. ``series`` holds ``(chunks, label)`` pairs:
    ``chunks`` yields the series' points as ``(x, y)`` pairs of float
    arrays, and is read once, for the points. ``axes`` are the ranges
    ``(x_lo, x_hi, y_lo, y_hi)`` of every series' points, as `_axes` gives
    them from each chunk's `_ends`: the caller takes them as it derives its
    points."""
    ml, mr, mt, mb = _MARGINS
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi, y_lo, y_hi = axes

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
            _write_points(fh, chunks, px, py)
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
    hold the extremes and ends of each whole column, so the axis ranges
    are taken from them. A block with a non-finite value keeps all its
    points."""
    n, T = len(traj), traj.params.T
    span = (0.0, (n - 1) * traj.dt / T)
    kept = [[], []]
    for lo in range(0, n, ROW_BLOCK):
        tau = np.arange(lo, min(lo + ROW_BLOCK, n)) * traj.dt / T
        for parts, y in zip(kept, traj.rows(lo, lo + ROW_BLOCK, ("xi", "chi"))):
            keep = _m4(tau, y, _COLUMNS, span)
            parts.append((tau[keep], y[keep]))
    points = []
    for parts in kept:
        x, y = (np.concatenate(v) for v in zip(*parts))
        keep = _m4(x, y, _COLUMNS, span)
        points.append((x[keep], y[keep]))
    render_line_svg(
        path,
        [([xy], label) for xy, label in zip(points, ("X / lambda", "x / Lambda"))],
        _axes([_ends(x, y) for x, y in points]),
        title="particle coordinate and cloud separation",
        xlabel="t / T",
        ylabel="dimensionless position",
    )


def _period_bound(axes, h: float, residual: float, pairs: np.ndarray) -> float:
    """``B``: how far, in px, the phase panel's polyline through every
    sample can lie from the one through its first period and its tail.

    With ``a`` and ``b`` the panel's px per unit on x and y over ``axes``
    and ``s = max(a, b)``, ``B`` is the sum of
    - the radius term ``s residual``, with ``residual`` the largest
      ``|residual|`` of the run: every sample lies within ``(max - min) / 2
      <= residual`` of one circle;
    - the arc term ``s (pi h)^2 / 4``, for the step ``h`` in T: twice the
      linear-interpolation bound ``max|r''| D^2 / 8`` of a unit circle
      between samples ``D <= pi h`` apart;
    - the reflection-chord term: the largest px distance between the pair
      of samples around each reflection and the pair around the first.
      ``pairs[k]`` holds the ``(x, y)`` of the samples before and after
      reflection ``k``.
    """
    x_lo, x_hi, y_lo, y_hi = axes
    ml, mr, mt, mb = _MARGINS
    a = (_PHASE_SIZE - ml - mr) / (x_hi - x_lo)
    b = (_PHASE_SIZE - mt - mb) / (y_hi - y_lo)
    s = max(a, b)
    z = np.pi * h
    moved = pairs - pairs[0]
    chord = float(np.max(np.hypot(a * moved[..., 0], b * moved[..., 1])))
    return s * residual + s * z * z / 4.0 + chord


def phase_plane_svg(traj, path) -> None:
    """Velocity-plane portrait: the pair traces the unit circle in the
    coordinates (1 - dXdt/v0, dxdt/c). The abscissa is ``1 - V``, which can
    differ from ``Re w`` in the last bit.

    Every period runs the same half circle and jumps back along the same
    chord at its reflection. So when the bound ``B`` of `_period_bound` is
    at most `_PHASE_SLACK` (0.005 px, half the ``%.2f`` quantum of the
    points), the panel draws samples ``0 .. q_1`` and ``q_last .. n - 1``
    alone, where ``q_k`` is the first sample after reflection ``k`` (entry
    ``k`` of ``traj.jumps``) and ``q_last`` that of the last reflection of
    the run. It draws every sample when fewer than two reflections lie in
    the run, when ``q_last <= q_1 + 1``, when a drawn value is not finite,
    or when ``B`` is larger. The axis ranges and the samples around each
    reflection come from one pass over every sample, one block of
    `ROW_BLOCK` rows at a time, so all but the points are the bytes of the
    full rendering; ``B``'s radius term reads `Trajectory.max_abs_residual`,
    which `integrate`'s divergence guard has set (a trajectory that fails
    the guard, which `integrate` never returns, raises `DivergenceError`
    here). The drawn rows are derived one chunk of `_CHUNK` samples at a
    time.
    """
    n = len(traj)
    q = [i for i, _ in traj.jumps[1:]]
    around = np.array([j for i in q for j in (i - 1, i)], dtype=np.intp)
    ends, pairs = [], []
    for lo in range(0, n, ROW_BLOCK):
        V, U = traj.rows(lo, lo + ROW_BLOCK, ("V", "U"))
        x = np.subtract(1.0, V, out=V)
        ends.append(_ends(x, U))
        at = around[np.searchsorted(around, lo):np.searchsorted(around, lo + len(x))] - lo
        pairs.append(np.stack([x[at], U[at]], axis=1))
    axes = _axes(ends)
    drawn = [(0, n)]
    if len(q) >= 2 and q[-1] > q[0] + 1 and np.isfinite(axes).all():
        pairs = np.concatenate(pairs).reshape(-1, 2, 2)
        bound = _period_bound(axes, traj.dt / traj.params.T, traj.max_abs_residual, pairs)
        if bound <= _PHASE_SLACK:
            drawn = [(0, q[0] + 1), (q[-1], n)]

    def chunks():
        for lo, hi in drawn:
            for i in range(lo, hi, _CHUNK):
                V, U = traj.rows(i, min(i + _CHUNK, hi), ("V", "U"))
                yield np.subtract(1.0, V, out=V), U

    render_line_svg(
        path,
        [(chunks(), "velocity locus")],
        axes,
        title="velocity-plane portrait",
        xlabel="1 - (dX/dt) / v0",
        ylabel="(dx/dt) / c",
        width=_PHASE_SIZE,
        height=_PHASE_SIZE,
    )
