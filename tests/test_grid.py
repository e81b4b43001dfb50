import numpy as np
import pytest

from heatplate import Grid, PlateGeometry, ThermalMaterial, stability_limit


def test_reference_grid_spacing(grid):
    assert grid.dx1 == pytest.approx(3.0e-3, rel=1e-12)
    assert grid.dx2 == pytest.approx(2.5e-4, rel=1e-12)


def test_smallest_legal_grid():
    g = Grid(PlateGeometry(1.0, 1.0), J=2, K=2)
    assert g.dx1 == 0.5 and g.dx2 == 0.5


def test_refined_grid():
    g = Grid(PlateGeometry(0.30, 0.01), J=200, K=80)
    assert g.dx1 == pytest.approx(1.5e-3, rel=1e-12)
    assert g.dx2 == pytest.approx(1.25e-4, rel=1e-12)


@pytest.mark.parametrize("J,K", [(1, 40), (100, 1), (0, 0)])
def test_rejects_too_few_cells(J, K):
    with pytest.raises(ValueError):
        Grid(PlateGeometry(0.30, 0.01), J=J, K=K)


@pytest.mark.parametrize("L,H,J,K,key", [
    (0.30, 0.01, 10 ** 300, 2, "J"),
    (0.30, 0.01, 2, 10 ** 300, "K"),
    # the cell's square 1e-312 is nonzero, but its reciprocal overflows
    (1e-154, 0.01, 100, 2, "J"),
    # the length's own square 1e-322 has a reciprocal that overflows
    (1e-161, 0.01, 100, 2, "geometry.L"),
    (1e-170, 0.01, 2, 2, "geometry.L"),
    (0.30, 1e300, 2, 2, "geometry.H"),
])
def test_cell_size_without_a_finite_nonzero_square(L, H, J, K, key):
    # blamed on the count unless the length itself fails the same rule: its
    # square and that square's reciprocal must be finite nonzero floats
    with pytest.raises(ValueError, match=f"^{key}: cell size"):
        Grid(PlateGeometry(L, H), J=J, K=K)


@pytest.mark.parametrize("L,H", [(0.0, 0.01), (0.30, -1.0)])
def test_rejects_bad_geometry(L, H):
    with pytest.raises(ValueError):
        PlateGeometry(L, H)


class TestFlatIndex:
    def test_bijection(self):
        g = Grid(PlateGeometry(0.3, 0.01), J=7, K=5)
        seen = set()
        for k in range(g.K):
            for j in range(g.J):
                offset = k * g.J + j
                assert 0 <= offset < g.n_cells
                assert g.cell_from_flat(offset) == (j, k)
                seen.add(offset)
        assert len(seen) == g.n_cells


def test_spacing_times_count_recovers_extent(grid):
    assert grid.dx1 * grid.J == pytest.approx(grid.geometry.L, rel=1e-12)
    assert grid.dx2 * grid.K == pytest.approx(grid.geometry.H, rel=1e-12)


def test_cell_areas_tile_the_plate(grid):
    total = grid.n_cells * grid.dx1 * grid.dx2
    expected = grid.geometry.L * grid.geometry.H
    assert total == pytest.approx(expected, rel=1e-12)


class TestStabilityLimit:
    def test_reference_value(self, grid, material):
        # 1/(2*alpha*(1/dx1^2 + 1/dx2^2)) with alpha = lambda(300)/(rho*c(300))
        # = (40/3.51e6) = 1.1396e-5 m^2/s, evaluated by hand: 2.7233e-3 s.
        limit = stability_limit(grid, material, 300.0)
        assert limit == pytest.approx(2.7233e-3, rel=0.05)
        # the scenario step size must fall below it
        assert 1e-3 < limit

    def test_textbook_bound(self):
        g = Grid(PlateGeometry(2.0, 2.0), J=2, K=2)  # dx1 = dx2 = 1
        mat = ThermalMaterial(rho=1.0, c0=1.0, c1=0.0, lambda0=0.5, lambda1=0.0)
        assert stability_limit(g, mat, 300.0) == pytest.approx(0.5, rel=1e-12)

    def test_hotter_reference_shrinks_bound(self, grid, material):
        # lambda/(rho c) grows with theta for this material
        assert stability_limit(grid, material, 400.0) < stability_limit(grid, material, 300.0)

    def test_quadratic_scaling(self, material):
        coarse = Grid(PlateGeometry(0.30, 0.01), J=50, K=20)
        fine = Grid(PlateGeometry(0.30, 0.01), J=100, K=40)
        ratio = stability_limit(coarse, material, 300.0) / stability_limit(fine, material, 300.0)
        assert ratio == pytest.approx(4.0, rel=1e-12)
