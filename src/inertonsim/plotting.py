"""Minimal self-contained SVG line plots (no plotting dependency).

Batch runs want a quick look at the motion without dragging in a plotting
stack, so this writes plain SVG by hand: axes, a handful of ticks, one
polyline per series and a small legend. The trajectory CSVs remain the
canonical data (and load directly into gnuplot); these files are just the
glanceable rendering.
"""

from __future__ import annotations

import numpy as np

from . import _text

_COLORS = ("#1a6fb5", "#c4443c", "#3d8d4e", "#8a5bb8")


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
    width: int = 760,
    height: int = 420,
) -> None:
    """Write one SVG panel. ``series`` holds ``(x, y, label)`` triples."""
    ml, mr, mt, mb = 64, 16, 34, 46
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


def trajectory_svg(traj, path) -> None:
    """Dimensionless trajectory panel: X/lam and x/Lam against t/T."""
    tau = np.arange(len(traj.xi)) * traj.dt / traj.params.T
    render_line_svg(
        path,
        [(tau, traj.xi, "X / lambda"), (tau, traj.chi, "x / Lambda")],
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
