import numpy as np
import pytest
from hypothesis import given, strategies as st

from resflow.grid import build_grid


def test_centers_and_width():
    g = build_grid(0.0, 2.0, 4)
    assert g.cell_width == 0.5
    assert np.allclose(g.cell_centers, [0.25, 0.75, 1.25, 1.75])
    assert np.array_equal(g.boundary_nodes, [0.0, 2.0])
    assert g.length == 2.0


@given(
    lo=st.floats(-10, 10),
    span=st.floats(0.1, 20),
    n=st.integers(1, 200),
)
def test_centers_stay_interior_and_equispaced(lo, span, n):
    g = build_grid(lo, lo + span, n)
    assert g.cell_centers[0] > g.x_lo
    assert g.cell_centers[-1] < g.x_hi
    if n > 1:
        gaps = np.diff(g.cell_centers)
        assert np.allclose(gaps, g.cell_width, rtol=1e-12, atol=1e-12)
    # cells tile the interval exactly
    assert g.n_cells * g.cell_width == pytest.approx(span, rel=1e-12)


@pytest.mark.parametrize("lo,hi,n", [(0.0, 0.0, 4), (1.0, 0.5, 4), (0.0, 1.0, 0)])
def test_degenerate_inputs_rejected(lo, hi, n):
    with pytest.raises(ValueError):
        build_grid(lo, hi, n)
