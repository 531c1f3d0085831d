"""Hand-emitted SVG renderings of benchmark matrices, fidelity-error
difference grids, and a run's most frequent outcomes, plus CSV companions.

No plotting dependency: the files are small, diff-able in tests, and the
color maps are pure functions of the cell values.
"""

from __future__ import annotations

from .harness import (
    STATUS_IDENTIFIED,
    STATUS_NON_IDENTIFIED,
    STATUS_SKIPPED,
    BenchmarkMatrix,
)
from .metrics import DeltaGrid
from .circuits import BitString

CELL = 26
MARGIN_LEFT = 58
MARGIN_TOP = 46
MARGIN_BOTTOM = 46
LEGEND_WIDTH = 170

COLOR_NON_IDENTIFIED = "#d9d9d9"
COLOR_SKIPPED = "#ffffff"
COLOR_GRID = "#bbbbbb"
COLOR_TARGET_BAR = "#d62728"
COLOR_OTHER_BAR = "#4878a8"

# 11-stop sequential ramp (dark violet -> yellow), luminance increasing.
_SEQ_STOPS = [
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
]
_NEG_HUE = (0.130, 0.400, 0.674)  # blue end of the diverging map
_POS_HUE = (0.698, 0.094, 0.169)  # red end


def _rgb(t: tuple[float, float, float]) -> str:
    return "#%02x%02x%02x" % tuple(int(round(255 * max(0.0, min(1.0, v)))) for v in t)


def sequential_color(value: float) -> str:
    """Map [0, 1] onto the sequential ramp (values clamped)."""
    v = max(0.0, min(1.0, float(value)))
    pos = v * (len(_SEQ_STOPS) - 1)
    i = min(int(pos), len(_SEQ_STOPS) - 2)
    t = pos - i
    lo, hi = _SEQ_STOPS[i], _SEQ_STOPS[i + 1]
    return _rgb(tuple(a + t * (b - a) for a, b in zip(lo, hi)))


def diverging_color(value: float) -> str:
    """Map [-1, 1] onto blue-white-red, white exactly at zero."""
    v = max(-1.0, min(1.0, float(value)))
    hue = _POS_HUE if v > 0 else _NEG_HUE
    t = abs(v)
    white = (1.0, 1.0, 1.0)
    return _rgb(tuple(w + t * (h - w) for w, h in zip(white, hue)))


def _svg_header(width: float, height: float) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}" '
        'font-family="Helvetica, Arial, sans-serif">'
    ]


def _axis_labels(qubits, depths, title: str) -> list[str]:
    parts = [f'<text x="{MARGIN_LEFT}" y="20" font-size="13">{title}</text>']
    for col, d in enumerate(depths):
        x = MARGIN_LEFT + col * CELL + CELL / 2
        y = MARGIN_TOP + CELL * len(qubits) + 16
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="9" text-anchor="middle">{d}</text>'
        )
    for row, n in enumerate(reversed(qubits)):
        x = MARGIN_LEFT - 8
        y = MARGIN_TOP + row * CELL + CELL / 2 + 3
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="9" text-anchor="end">{n}</text>'
        )
    x_mid = MARGIN_LEFT + CELL * len(depths) / 2
    y_bot = MARGIN_TOP + CELL * len(qubits) + 34
    parts.append(
        f'<text x="{x_mid:.1f}" y="{y_bot:.1f}" font-size="11" text-anchor="middle">depth</text>'
    )
    y_mid = MARGIN_TOP + CELL * len(qubits) / 2
    parts.append(
        f'<text x="14" y="{y_mid:.1f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {y_mid:.1f})">qubits</text>'
    )
    return parts


def skip_boundary(matrix: BenchmarkMatrix) -> list[tuple[float, float]]:
    """Vertices of the staircase separating executed cells from skipped
    ones, in SVG coordinates (qubits increase upward, so the smallest n is
    the bottom row).  Executed cells form a prefix of each row, as the
    protocol runs them and matrix loading checks, so a row's executed cells
    count its columns left of the line."""
    executed_cols = {n: sum(matrix.cells[(n, d)].status != STATUS_SKIPPED for d in matrix.depths)
                     for n in matrix.qubits}

    points: list[tuple[float, float]] = []
    # Walk rows from the top of the plot (largest n) downward.
    for row, n in enumerate(reversed(matrix.qubits)):
        x = MARGIN_LEFT + executed_cols[n] * CELL
        y_top = MARGIN_TOP + row * CELL
        y_bot = y_top + CELL
        if not points:
            points.append((x, y_top))
        elif points[-1][0] != x:
            points.append((points[-1][0], y_top))
            points.append((x, y_top))
        points.append((x, y_bot))
    return points


def _render_grid(qubits, depths, title, fill, overlay, legend_title, ramp, ramp_ends, swatches):
    """Grid with depth horizontal and qubit count vertical, cell (n, d)
    filled with fill(n, d), then the overlay elements, then a legend: its
    title, the ramp colors labeled at both ends, and one swatch per
    (color, label)."""
    width = MARGIN_LEFT + CELL * len(depths) + LEGEND_WIDTH
    height = MARGIN_TOP + CELL * len(qubits) + MARGIN_BOTTOM
    parts = _svg_header(width, height)
    parts.extend(_axis_labels(qubits, depths, title))
    for row, n in enumerate(reversed(qubits)):
        for col, d in enumerate(depths):
            x, y = MARGIN_LEFT + col * CELL, MARGIN_TOP + row * CELL
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{CELL}" height="{CELL}" '
                f'fill="{fill(n, d)}" stroke="{COLOR_GRID}" stroke-width="0.5"/>'
            )
    parts.extend(overlay)
    lx = MARGIN_LEFT + CELL * len(depths) + 18
    parts.append(f'<text x="{lx}" y="{MARGIN_TOP + 8}" font-size="10">{legend_title}</text>')
    for i, color in enumerate(ramp):
        parts.append(
            f'<rect x="{lx + i * 9}" y="{MARGIN_TOP + 14}" width="9" height="10" fill="{color}"/>'
        )
    low, high = ramp_ends
    parts.append(f'<text x="{lx}" y="{MARGIN_TOP + 36}" font-size="9">{low}</text>')
    parts.append(
        f'<text x="{lx + len(ramp) * 9}" y="{MARGIN_TOP + 36}" font-size="9" text-anchor="end">{high}</text>'
    )
    for dy, (color, label) in enumerate(swatches):
        y = MARGIN_TOP + 50 + dy * 16
        parts.append(
            f'<rect x="{lx}" y="{y}" width="10" height="10" fill="{color}" '
            f'stroke="{COLOR_GRID}" stroke-width="0.5"/>'
        )
        parts.append(f'<text x="{lx + 14}" y="{y + 9}" font-size="9">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_matrix_heatmap(matrix: BenchmarkMatrix) -> str:
    """Grid with depth horizontal and qubit count vertical: identified cells
    colored by mean fidelity error, non-identified light gray, skipped
    white, and a black staircase between executed and skipped cells."""
    if not matrix.cells:
        raise ValueError("empty benchmark matrix")

    def fill(n: int, d: int) -> str:
        cell = matrix.cells[(n, d)]
        if cell.status == STATUS_IDENTIFIED:
            return sequential_color(cell.mean_f if cell.mean_f is not None else 1.0)
        return COLOR_NON_IDENTIFIED if cell.status == STATUS_NON_IDENTIFIED else COLOR_SKIPPED

    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in skip_boundary(matrix))
    return _render_grid(
        list(matrix.qubits),
        list(matrix.depths),
        "Peak identification",
        fill,
        overlay=[f'<polyline points="{pts}" fill="none" stroke="#000000" stroke-width="2"/>'],
        legend_title="fidelity error",
        ramp=[sequential_color(i / 9) for i in range(10)],
        ramp_ends=("0", "1"),
        swatches=[(COLOR_NON_IDENTIFIED, "non-identified"), (COLOR_SKIPPED, "skipped")],
    )


def render_delta_heatmap(delta: DeltaGrid) -> str:
    """Diverging map over [-1, 1], white at zero; cells absent from the
    comparison stay uncolored."""
    if not delta.values:
        raise ValueError("empty delta grid")

    def fill(n: int, d: int) -> str:
        value = delta.values.get((n, d))
        return "none" if value is None else diverging_color(value)

    return _render_grid(
        list(delta.qubits),
        list(delta.depths),
        "Fidelity error difference",
        fill,
        overlay=[],
        legend_title="&#916;F",
        ramp=[diverging_color(-1.0 + 2.0 * i / 10) for i in range(11)],
        ramp_ends=("-1", "+1"),
        swatches=[],
    )


def render_histogram(top_counts, target: BitString, shots: int, top_k: int = 10) -> str:
    """Bar chart of the top-k of a run's (BitString, count) pairs, ranked by
    count and then by basis index as ShotHistogram.top ranks them, with the
    target bar highlighted.  Each bar is labeled with its frequency count /
    shots, where shots is the run's total, which exceeds the counts' sum
    when they are only the run's most frequent outcomes."""
    entries = sorted(top_counts, key=lambda e: (-e[1], e[0].index))[:top_k]
    if not entries:
        raise ValueError("no outcomes to draw")
    bar_w = 34
    gap = 10
    plot_h = 150
    width = 70 + len(entries) * (bar_w + gap)
    height = plot_h + 80
    parts = _svg_header(width, height)
    parts.append('<text x="40" y="20" font-size="12">Outcome frequencies</text>')
    max_freq = max(c for _, c in entries) / shots
    for i, (bs, count) in enumerate(entries):
        freq = count / shots
        h = plot_h * (freq / max_freq) if max_freq > 0 else 0.0
        x = 50 + i * (bar_w + gap)
        y = 30 + plot_h - h
        color = COLOR_TARGET_BAR if bs == target else COLOR_OTHER_BAR
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w}" height="{h:.1f}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" font-size="8" '
            f'text-anchor="middle">{freq:.4f}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{30 + plot_h + 12:.1f}" font-size="7" '
            f'text-anchor="middle">{bs.text}</text>'
        )
    parts.append(
        f'<text x="50" y="{30 + plot_h + 30:.1f}" font-size="9" fill="{COLOR_TARGET_BAR}">'
        "red = target bitstring</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def delta_to_csv(delta: DeltaGrid) -> str:
    lines = ["n,d,delta_f"]
    for n in delta.qubits:
        for d in delta.depths:
            value = delta.values.get((n, d))
            lines.append(f"{n},{d},{'' if value is None else f'{value:.6f}'}")
    return "\n".join(lines) + "\n"
