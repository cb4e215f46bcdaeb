import numpy as np
import pytest

from qpland.decomposition import AnalyticDecomposition
from qpland.errors import QplandError
from qpland.evaluation import _equal_arclength, arc_length, make_grid, quasipotential_errors
from qpland.systems import make_system


@pytest.fixture
def exact_bistable():
    return AnalyticDecomposition.from_system(make_system("bistable3d"))


class TestQuasipotentialErrors:
    def test_exact_model_scores_zero(self, exact_bistable):
        points, _ = make_grid([[-2.0, 2.0], [-1.5, 1.5], [-1.5, 1.5]], 7)
        system = make_system("bistable3d")
        assert quasipotential_errors(exact_bistable, system.exact_u, points) == (0.0, 0.0)

    def test_one_point_grid_rejected(self, exact_bistable):
        # a one-point grid is a valid make_grid result, but the exact
        # landscape, pinned to its minimum there, is identically zero
        points, _ = make_grid([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]], 1)
        assert points.shape == (1, 3)
        system = make_system("bistable3d")
        with pytest.raises(QplandError, match="zero norm"):
            quasipotential_errors(exact_bistable, system.exact_u, points)

    def test_constant_exact_landscape_rejected(self, exact_bistable):
        points, _ = make_grid([[-1.0, 1.0]] * 3, 4)
        with pytest.raises(QplandError, match="zero norm"):
            quasipotential_errors(exact_bistable, lambda x: np.full(len(x), 3.0), points)


class TestArcLength:
    def test_cumulative_lengths(self):
        path = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [3.0, 5.0]])
        assert arc_length(path).tolist() == [0.0, 5.0, 5.0, 6.0]

    def test_equal_arclength_spacing(self):
        images = np.array([[0.0, 0.0], [0.1, 0.0], [2.0, 0.0]])
        out = _equal_arclength(images)
        assert out.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]

    def test_coincident_endpoints_left_untouched(self):
        images = np.zeros((4, 2))
        assert _equal_arclength(images) is images
