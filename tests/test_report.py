import xml.etree.ElementTree as ET

import numpy as np
import pytest

from prcbench.circuits import BitString
from prcbench.harness import (
    STATUS_IDENTIFIED,
    STATUS_NON_IDENTIFIED,
    STATUS_SKIPPED,
    BenchConfig,
    BenchmarkMatrix,
    CellResult,
)
from prcbench.metrics import DeltaGrid
from prcbench.report import (
    delta_to_csv,
    diverging_color,
    render_delta_heatmap,
    render_histogram,
    render_matrix_heatmap,
    sequential_color,
    skip_boundary,
    CELL,
    MARGIN_LEFT,
)
from prcbench.sim import ProbabilityDistribution, sample


def make_matrix(status_grid, mean_f=0.2):
    """status_grid: dict (n, d) -> status string."""
    qubits = tuple(sorted({n for n, _ in status_grid}))
    depths = tuple(sorted({d for _, d in status_grid}))
    config = BenchConfig(qubits=qubits, depths=depths, reps=1, threshold=1)
    cells = {
        key: CellResult(
            status=status,
            records=(),
            mean_f=mean_f if status == STATUS_IDENTIFIED else None,
            identified_reps=1 if status == STATUS_IDENTIFIED else 0,
        )
        for key, status in status_grid.items()
    }
    return BenchmarkMatrix(config, qubits, depths, cells, {})


class TestMatrixHeatmap:
    def test_valid_xml_and_stable(self):
        grid = {
            (2, 2): STATUS_IDENTIFIED,
            (2, 3): STATUS_NON_IDENTIFIED,
            (3, 2): STATUS_IDENTIFIED,
            (3, 3): STATUS_SKIPPED,
        }
        matrix = make_matrix(grid)
        svg = render_matrix_heatmap(matrix)
        ET.fromstring(svg)
        assert svg == render_matrix_heatmap(matrix)

    def test_single_identified_cell_at_zero_uses_ramp_origin(self):
        matrix = make_matrix({(2, 2): STATUS_IDENTIFIED}, mean_f=0.0)
        svg = render_matrix_heatmap(matrix)
        assert sequential_color(0.0) in svg

    def test_all_skipped_boundary_at_left_edge(self):
        grid = {(n, d): STATUS_SKIPPED for n in (2, 3) for d in (2, 3, 4)}
        matrix = make_matrix(grid)
        points = skip_boundary(matrix)
        assert all(x == MARGIN_LEFT for x, _ in points)
        svg = render_matrix_heatmap(matrix)
        ET.fromstring(svg)

    def test_diagonal_boundary_matches_cell_classification(self):
        # Row n executes depths < 8 - n, rest skipped: a staircase.
        qubits, depths = (2, 3, 4), (2, 3, 4, 5)
        grid = {}
        for n in qubits:
            for d in depths:
                grid[(n, d)] = STATUS_IDENTIFIED if d < 8 - n else STATUS_SKIPPED
        matrix = make_matrix(grid)
        points = skip_boundary(matrix)
        # Independent recomputation: executed prefix length per row.
        for row, n in enumerate(reversed(qubits)):
            executed = sum(1 for d in depths if grid[(n, d)] != STATUS_SKIPPED)
            x_expected = MARGIN_LEFT + executed * CELL
            ys_in_row = [
                y for x, y in points if x == x_expected
            ]
            assert ys_in_row, f"no boundary segment at row n={n}"

    def test_empty_matrix_rejected(self):
        config = BenchConfig(qubits=(2,), depths=(2,))
        matrix = BenchmarkMatrix(config, (2,), (2,), {}, {})
        with pytest.raises(ValueError):
            render_matrix_heatmap(matrix)


class TestColorMaps:
    def test_sequential_endpoints_and_monotone_luminance(self):
        lums = []
        for v in np.linspace(0, 1, 21):
            color = sequential_color(v)
            r, g, b = (int(color[i : i + 2], 16) for i in (1, 3, 5))
            lums.append(0.2126 * r + 0.7152 * g + 0.0722 * b)
        assert all(a < b for a, b in zip(lums, lums[1:]))

    def test_diverging_white_at_zero_and_saturated_ends(self):
        assert diverging_color(0.0) == "#ffffff"
        assert diverging_color(1.0) != "#ffffff"
        assert diverging_color(-1.0) != "#ffffff"
        assert diverging_color(1.0) == diverging_color(2.0)  # clamped

    def test_diverging_reference_recomputation(self):
        # Linear ramp toward the hue: channel = 255*(1 + t*(hue - 1)).
        neg = (0.130, 0.400, 0.674)
        pos = (0.698, 0.094, 0.169)
        for v in (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0):
            hue = pos if v > 0 else neg
            t = abs(v)
            expected = "#%02x%02x%02x" % tuple(
                int(round(255 * (1 + t * (h - 1)))) for h in hue
            )
            assert diverging_color(v) == expected


class TestDeltaHeatmap:
    def test_all_zero_grid_all_white(self):
        delta = DeltaGrid(
            qubits=(2, 3), depths=(2, 3), values={(n, d): 0.0 for n in (2, 3) for d in (2, 3)}
        )
        svg = render_delta_heatmap(delta)
        ET.fromstring(svg)
        # every data cell is white; legend also includes white at center
        assert svg.count('fill="#ffffff"') >= 4

    def test_absent_cells_uncolored(self):
        delta = DeltaGrid(qubits=(2,), depths=(2, 3), values={(2, 2): 0.4, (2, 3): None})
        svg = render_delta_heatmap(delta)
        assert 'fill="none"' in svg

    def test_mixed_grid_colors_match_reference_mapping(self):
        values = {(2, 2): -0.7, (2, 3): 0.3}
        delta = DeltaGrid(qubits=(2,), depths=(2, 3), values=values)
        svg = render_delta_heatmap(delta)
        for v in values.values():
            assert diverging_color(v) in svg

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^empty delta grid$"):
            render_delta_heatmap(DeltaGrid(qubits=(), depths=(), values={}))

    def test_csv(self):
        delta = DeltaGrid(qubits=(2,), depths=(2, 3), values={(2, 2): 0.25, (2, 3): None})
        csv = delta_to_csv(delta)
        assert csv.splitlines() == ["n,d,delta_f", "2,2,0.250000", "2,3,"]


def _pairs(n, counts):
    return [(BitString.from_index(i, n), c) for i, c in counts.items()]


class TestHistogram:
    def test_point_mass_single_highlighted_bar(self):
        svg = render_histogram(_pairs(3, {0: 500}), BitString.zeros(3), 500)
        ET.fromstring(svg)
        assert svg.count("<rect") == 1
        assert "#d62728" in svg

    def test_identified_shape_tallest_is_target(self):
        svg = render_histogram(_pairs(2, {1: 10, 0: 80, 2: 10}), BitString.zeros(2), 100)
        first_bar = svg[svg.index("<rect") :].split("/>")[0]
        assert "#d62728" in first_bar  # bars are emitted tallest first

    def test_non_identified_shape_target_not_tallest(self):
        svg = render_histogram(_pairs(2, {0: 10, 1: 80, 2: 10}), BitString.zeros(2), 100)
        first_bar = svg[svg.index("<rect") :].split("/>")[0]
        assert "#d62728" not in first_bar

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_histogram([], BitString.zeros(2), 100)

    def test_shuffled_top_counts_draw_as_their_histogram(self):
        # A record stores hist.top(top_k) as text pairs; drawn in any order,
        # they give the bytes of drawing the run's histogram directly.  60
        # shots over 16 outcomes tie many counts, so the basis-index rule
        # decides ranks too.
        rng = np.random.default_rng(5)
        hist = sample(ProbabilityDistribution(np.full(16, 1 / 16), 4), 60, rng)
        target = BitString.from_index(int(hist.outcomes[3]), 4)
        stored = [(bs.text, c) for bs, c in hist.top(8)]
        assert len({c for _, c in stored}) < len(stored)
        rng.shuffle(stored)
        top_counts = [(BitString.from_text(text), c) for text, c in stored]
        for k in (1, 3, 8):
            want = render_histogram(hist.top(k), target, hist.shots, k)
            assert render_histogram(top_counts, target, hist.shots, k) == want
