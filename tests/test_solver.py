import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatplate import (ActuatorBank, BoundaryFluxes, DeviceSpec, Grid,
                       PlateGeometry, SurfaceExchange, ThermalMaterial,
                       assemble_rhs, boundary_fluxes, step_forward_euler,
                       stability_limit, weighted_rhs_sum, worst_invalid_cell)

INSULATED = SurfaceExchange(h=0.0, emissivity=0.0, theta_amb=300.0)


def make_bank(grid, M=0.0, count=5):
    return ActuatorBank.build(grid, DeviceSpec(count, m=1.0, M=M, nu=4.0))


def zero_fluxes(grid):
    return BoundaryFluxes(underside=np.zeros(grid.J), left=np.zeros(grid.K),
                          right=np.zeros(grid.K), top=np.zeros(grid.J))


def random_fluxes(grid, rng, scale=2e3):
    return BoundaryFluxes(
        underside=rng.uniform(-scale, scale, grid.J),
        left=rng.uniform(-scale, scale, grid.K),
        right=rng.uniform(-scale, scale, grid.K),
        top=rng.uniform(-scale, scale, grid.J),
    )


def face_conductivity(material, theta_a, theta_b):
    """Conductivity at a cell face, evaluated at the mean temperature.

    Symmetric in its arguments, bitwise: (a + b)/2 commutes.
    """
    return material.thermal_conductivity((theta_a + theta_b) / 2)


def ghost_cell_rhs(field, grid, material, fluxes):
    """Brute-force oracle: materialize ghost temperatures, then apply the
    plain three-point flux balance along each axis.

    A ghost value satisfies lambda_face*(ghost - cell)/dx = phi with the
    face conductivity evaluated at the mean of cell and ghost; the pair is
    solved self-consistently by fixed-point iteration.
    """
    J, K, dx1, dx2 = grid.J, grid.K, grid.dx1, grid.dx2
    T = np.asarray(field).reshape(K, J)

    def ghost(theta, phi, dx):
        lam = material.thermal_conductivity(theta)
        for _ in range(200):
            g = theta + dx * phi / lam
            lam_next = face_conductivity(material, theta, g)
            if abs(lam_next - lam) <= 1e-15 * abs(lam):
                lam = lam_next
                break
            lam = lam_next
        return theta + dx * phi / lam

    rates = np.empty((K, J))
    for k in range(K):
        for j in range(J):
            tc = T[k, j]
            # x1 neighbors, ghosts at the lateral boundaries
            te = T[k, j + 1] if j + 1 < J else ghost(tc, fluxes.right[k], dx1)
            tw = T[k, j - 1] if j - 1 >= 0 else ghost(tc, fluxes.left[k], dx1)
            le = face_conductivity(material, tc, te)
            lw = face_conductivity(material, tc, tw)
            q1 = (le * te + lw * tw - (le + lw) * tc) / dx1**2
            # x2 neighbors, ghosts at topside/underside
            tn = T[k + 1, j] if k + 1 < K else ghost(tc, fluxes.top[j], dx2)
            ts = T[k - 1, j] if k - 1 >= 0 else ghost(tc, fluxes.underside[j], dx2)
            ln = face_conductivity(material, tc, tn)
            ls = face_conductivity(material, tc, ts)
            q2 = (ln * tn + ls * ts - (ln + ls) * tc) / dx2**2
            rates[k, j] = (q1 + q2) / material.volumetric_heat_coefficient(tc)
    return rates.reshape(-1)


def face_conductivity_rhs(field, grid, material, fluxes):
    """Oracle in the conductivity form: each face flux is the conductivity
    at the mean face temperature times the temperature difference."""
    T = np.asarray(field).reshape(grid.K, grid.J)
    balance = np.zeros_like(T)
    f1 = face_conductivity(material, T[:, :-1], T[:, 1:]) * (T[:, 1:] - T[:, :-1])
    balance[:, :-1] += f1 / grid.dx1**2
    balance[:, 1:] -= f1 / grid.dx1**2
    f2 = face_conductivity(material, T[:-1, :], T[1:, :]) * (T[1:, :] - T[:-1, :])
    balance[:-1, :] += f2 / grid.dx2**2
    balance[1:, :] -= f2 / grid.dx2**2
    balance[:, 0] += fluxes.left / grid.dx1
    balance[:, -1] += fluxes.right / grid.dx1
    balance[0, :] += fluxes.underside / grid.dx2
    balance[-1, :] += fluxes.top / grid.dx2
    return (balance / material.volumetric_heat_coefficient(T)).reshape(-1)


class TestFaceConductivity:
    def test_mean_evaluation(self, material):
        assert face_conductivity(material, 300.0, 300.0) == pytest.approx(40.0, rel=1e-12)
        # lambda((300+500)/2) = 10 + 0.1*400
        assert face_conductivity(material, 300.0, 500.0) == pytest.approx(50.0, rel=1e-12)

    def test_equal_arguments(self, material):
        assert (face_conductivity(material, 321.0, 321.0)
                == material.thermal_conductivity(321.0))

    def test_symmetric_bitwise(self, material):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 2000, 100)
        b = rng.uniform(0, 2000, 100)
        assert (face_conductivity(material, a, b) == face_conductivity(material, b, a)).all()


class TestBoundaryFluxes:
    def test_equilibrium_is_all_zero(self, grid, exchange):
        field = np.full(grid.n_cells, 300.0)
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.zeros(5))
        for arr in (fl.underside, fl.left, fl.right, fl.top):
            assert (arr == 0.0).all()

    def test_hot_plate_emits_everywhere(self, grid, exchange):
        field = np.full(grid.n_cells, 400.0)
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.zeros(5))
        for arr in (fl.left, fl.right, fl.top):
            assert arr == pytest.approx(np.full_like(arr, -1595.35), abs=0.01)
        assert (fl.underside == 0.0).all()

    def test_uniform_input_on_flat_bank(self, grid, exchange):
        field = np.full(grid.n_cells, 300.0)
        p = 1e5
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.full(5, p))
        assert (fl.underside == p).all()
        assert (fl.top == 0.0).all() and (fl.left == 0.0).all()

    def test_edges_match_per_edge_emission(self, grid, exchange):
        rng = np.random.default_rng(5)
        field = rng.uniform(250.0, 450.0, grid.n_cells)
        T = field.reshape(grid.K, grid.J)
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.zeros(5))
        assert fl.left == pytest.approx(exchange.emitted_flux(T[:, 0]), rel=1e-14)
        assert fl.right == pytest.approx(exchange.emitted_flux(T[:, -1]), rel=1e-14)
        assert fl.top == pytest.approx(exchange.emitted_flux(T[-1, :]), rel=1e-14)


class TestAssembleRhs:
    def test_uniform_insulated_field_is_static(self, grid, material):
        field = np.full(grid.n_cells, 321.0)
        rhs = assemble_rhs(field, grid, material, zero_fluxes(grid))
        assert (rhs == 0.0).all()

    def test_ambient_equilibrium_is_static(self, grid, material, exchange):
        field = np.full(grid.n_cells, 300.0)
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.zeros(5))
        rhs = assemble_rhs(field, grid, material, fl)
        assert (rhs == 0.0).all()

    def test_center_cell_five_point_laplacian(self):
        # constant conductivity: the center rate collapses to the classic
        # five-point formula
        g = Grid(PlateGeometry(0.3, 0.3), J=3, K=3)
        mat = ThermalMaterial(rho=2.0, c0=10.0, c1=0.0, lambda0=4.0, lambda1=0.0)
        T = np.array([[300.0, 310.0, 305.0],
                      [295.0, 330.0, 315.0],
                      [302.0, 308.0, 304.0]])
        rhs = assemble_rhs(T.reshape(-1), g, mat, zero_fluxes(g))
        tc, te, tw = T[1, 1], T[1, 2], T[1, 0]
        tn, ts = T[2, 1], T[0, 1]
        expected = (4.0 / (2.0 * 10.0)) * ((te + tw - 2 * tc) / g.dx1**2
                                           + (tn + ts - 2 * tc) / g.dx2**2)
        assert rhs[g.J + 1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("J,K", [(3, 3), (4, 4), (3, 5), (2, 5), (6, 2), (5, 3)])
    def test_matches_ghost_cell_oracle(self, J, K, material):
        g = Grid(PlateGeometry(0.3, 0.01), J=J, K=K)
        rng = np.random.default_rng(100 * J + K)
        for _ in range(20):
            field = rng.uniform(250.0, 450.0, g.n_cells)
            fluxes = random_fluxes(g, rng)
            got = assemble_rhs(field, g, material, fluxes)
            want = ghost_cell_rhs(field, g, material, fluxes)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("J,K", [(7, 5), (100, 40), (400, 160)])
    def test_matches_face_conductivity_form(self, J, K, material):
        # the Kirchhoff potential difference equals the mean-conductivity
        # face flux exactly for affine lambda; only rounding may differ
        g = Grid(PlateGeometry(0.3, 0.01), J=J, K=K)
        rng = np.random.default_rng(J * K)
        for _ in range(5):
            field = rng.uniform(250.0, 450.0, g.n_cells)
            fluxes = random_fluxes(g, rng)
            got = assemble_rhs(field, g, material, fluxes)
            want = face_conductivity_rhs(field, g, material, fluxes)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lateral", [0.0, 1.5e3])
    def test_no_flux_across_row_seams(self, material, lateral):
        # rows constant in j but steep in k: a flux leaking across the seam
        # from the last cell of row k to the first of row k+1 would break
        # the j-independence of each row; equal lateral fluxes touch only
        # the two end cells, and identically
        g = Grid(PlateGeometry(0.3, 0.01), J=7, K=5)
        rows = 250.0 + 12.5 * np.arange(g.K) ** 2
        field = np.repeat(rows, g.J)
        fluxes = BoundaryFluxes(underside=np.full(g.J, 4e3),
                                left=np.full(g.K, lateral),
                                right=np.full(g.K, lateral),
                                top=np.full(g.J, -2e3))
        rates = assemble_rhs(field, g, material, fluxes).reshape(g.K, g.J)
        assert (rates[:, 1:-1] == rates[:, [1]]).all()
        assert (rates[:, 0] == rates[:, -1]).all()
        if lateral == 0.0:
            assert (rates == rates[:, [0]]).all()

    def test_mirror_symmetry(self, material):
        # reflecting field and fluxes about the vertical midline reflects
        # the rates bitwise
        g = Grid(PlateGeometry(0.3, 0.01), J=12, K=7)
        rng = np.random.default_rng(42)
        field = rng.uniform(250.0, 450.0, g.n_cells)
        fluxes = random_fluxes(g, rng)
        mirrored_field = field.reshape(g.K, g.J)[:, ::-1].reshape(-1)
        mirrored_fluxes = BoundaryFluxes(
            underside=fluxes.underside[::-1],
            left=fluxes.right,
            right=fluxes.left,
            top=fluxes.top[::-1],
        )
        rhs = assemble_rhs(field, g, material, fluxes)
        mirrored_rhs = assemble_rhs(mirrored_field, g, material, mirrored_fluxes)
        flipped = mirrored_rhs.reshape(g.K, g.J)[:, ::-1].reshape(-1)
        assert flipped == pytest.approx(rhs, abs=1e-12)


class TestStepForwardEuler:
    def test_zero_rate_is_identity(self, grid):
        field = np.linspace(300.0, 400.0, grid.n_cells)
        assert (step_forward_euler(field, np.zeros_like(field), 0.5) == field).all()

    def test_rejects_nonpositive_dt(self, grid):
        field = np.zeros(grid.n_cells)
        with pytest.raises(ValueError):
            step_forward_euler(field, field, 0.0)

    def test_hot_cell_spreads_to_neighbors_only(self, material):
        g = Grid(PlateGeometry(0.1, 0.1), J=5, K=5)
        field = np.full(g.n_cells, 300.0)
        center = 2 * g.J + 2
        field[center] = 310.0
        rhs = assemble_rhs(field, g, material, zero_fluxes(g))
        dt = 0.25 * stability_limit(g, material, 310.0)
        new = step_forward_euler(field, rhs, dt)
        assert new[center] < 310.0
        neighbors = [2 * g.J + 1, 2 * g.J + 3,
                     g.J + 2, 3 * g.J + 2]
        for idx in neighbors:
            assert new[idx] > 300.0
        untouched = np.setdiff1d(np.arange(g.n_cells), neighbors + [center])
        assert (new[untouched] == 300.0).all()

    def test_maximum_principle(self, grid):
        # constant coefficients, insulated, dt at the stability bound:
        # the update is a convex combination of the old field
        mat = ThermalMaterial(rho=7800.0, c0=330.0, c1=0.0, lambda0=10.0, lambda1=0.0)
        rng = np.random.default_rng(8)
        field = rng.uniform(250.0, 450.0, grid.n_cells)
        dt = stability_limit(grid, mat, 300.0)
        for _ in range(5):
            rhs = assemble_rhs(field, grid, mat, zero_fluxes(grid))
            new = step_forward_euler(field, rhs, dt)
            assert new.min() >= field.min() - 1e-9
            assert new.max() <= field.max() + 1e-9
            field = new

    @settings(max_examples=200, deadline=None)
    @given(J=st.integers(2, 8), K=st.integers(2, 8),
           length=st.floats(1e-3, 1.0), height=st.floats(1e-3, 1.0),
           rho=st.floats(1.0, 2e4), c0=st.floats(1.0, 1e3),
           c_slope=st.floats(-0.99, 2.0),
           lambda0=st.floats(0.1, 400.0), lambda_slope=st.floats(-0.99, 2.0),
           bounds=st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=2),
           fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_maximum_principle_property(self, J, K, length, height, rho, c0, c_slope,
                                        lambda0, lambda_slope, bounds, fraction, seed):
        # Unforced and insulated, with any affine material: every face
        # conductivity is at most lambda_max and every rho*c at least
        # rho_c_min, both taken at the field's extremes.  A step within
        # 1/(2*lambda_max/rho_c_min*(1/dx1^2 + 1/dx2^2)) then makes each new
        # cell a convex combination of old ones, so the field stays within
        # its old [min, max] up to rounding.
        cap = 3000.0
        # slopes scaled so that both laws stay positive on [0, cap]
        material = ThermalMaterial(rho, c0, c_slope * c0 / cap, lambda0,
                                   lambda_slope * lambda0 / cap, cap)
        g = Grid(PlateGeometry(length, height), J=J, K=K)
        lo, hi = sorted(bounds)
        field = np.random.default_rng(seed).uniform(lo, hi, g.n_cells)
        extremes = np.array([field.min(), field.max()])
        lambda_max = material.thermal_conductivity(extremes).max()
        rho_c_min = material.volumetric_heat_coefficient(extremes).min()
        dt = fraction / (2 * lambda_max / rho_c_min * (1 / g.dx1 ** 2 + 1 / g.dx2 ** 2))
        bank = make_bank(g, count=1)
        fluxes = boundary_fluxes(field, g, INSULATED, bank, np.zeros(1))
        new = step_forward_euler(field, assemble_rhs(field, g, material, fluxes), dt)
        rounding = 64 * np.finfo(float).eps * cap
        assert new.min() >= field.min() - rounding
        assert new.max() <= field.max() + rounding

    def test_unstable_step_diverges(self, preset1, material, exchange, grid):
        # dt far above the ~2.7e-3 s advisory bound blows up within a few
        # hundred steps
        from heatplate import initial_field
        bank = make_bank(grid)
        field = initial_field(grid, preset1.initial)
        dt = 0.05
        diverged_at = None
        with np.errstate(all="ignore"):
            for step in range(200):
                fl = boundary_fluxes(field, grid, exchange, bank, np.full(5, 1e6))
                rhs = assemble_rhs(field, grid, material, fl)
                field = step_forward_euler(field, rhs, dt)
                if worst_invalid_cell(field) is not None:
                    diverged_at = step
                    break
        assert diverged_at is not None


class TestFirstInvalidCell:
    def test_clean_field(self, grid):
        assert worst_invalid_cell(np.full(grid.n_cells, 300.0)) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_flags_first_offender(self, grid, bad):
        field = np.full(grid.n_cells, 300.0)
        field[17] = bad
        assert worst_invalid_cell(field) == 17

    def test_upper_bound(self, grid):
        field = np.full(grid.n_cells, 300.0)
        field[[23, 40]] = 3000.5
        assert worst_invalid_cell(field) is None
        assert worst_invalid_cell(field, 3000.5) is None
        assert worst_invalid_cell(field, 3000.0) == 23

    def test_farthest_offender_wins(self, grid):
        field = np.full(grid.n_cells, 300.0)
        field[[5, 64]] = -60.0, -176.0
        assert worst_invalid_cell(field) == 64
        field[70] = 3176.5  # farther above the cap than 64 is below zero
        assert worst_invalid_cell(field, 3000.0) == 70
        field[90] = np.nan  # a non-finite entry beats any finite one
        assert worst_invalid_cell(field, 3000.0) == 90


class TestWeightedRhsSum:
    def test_insulated_total_vanishes(self, grid, material):
        rng = np.random.default_rng(21)
        field = rng.uniform(250.0, 450.0, grid.n_cells)
        rhs = assemble_rhs(field, grid, material, zero_fluxes(grid))
        total = weighted_rhs_sum(field, rhs, grid, material)
        gross = float(np.sum(np.abs(
            material.volumetric_heat_coefficient(field) * rhs
        )) * grid.dx1 * grid.dx2)
        assert abs(total) <= 1e-9 * gross

    def test_uniform_heating_totals_plate_length(self, grid, material, exchange):
        # at ambient the emission terms vanish and only the underside flux
        # p remains: the total is p times the plate length
        field = np.full(grid.n_cells, 300.0)
        p = 3e5
        fl = boundary_fluxes(field, grid, exchange, make_bank(grid), np.full(5, p))
        rhs = assemble_rhs(field, grid, material, fl)
        total = weighted_rhs_sum(field, rhs, grid, material)
        assert total == pytest.approx(p * grid.geometry.length, rel=1e-12)

    def test_single_hot_cell_telescopes(self, material):
        g = Grid(PlateGeometry(0.1, 0.1), J=5, K=5)
        field = np.full(g.n_cells, 300.0)
        field[2 * g.J + 2] = 310.0
        rhs = assemble_rhs(field, g, material, zero_fluxes(g))
        gross = float(np.sum(np.abs(
            material.volumetric_heat_coefficient(field) * rhs
        )) * g.dx1 * g.dx2)
        assert abs(weighted_rhs_sum(field, rhs, g, material)) <= 1e-12 * gross

    def test_balances_boundary_flux_total(self, material):
        rng = np.random.default_rng(33)
        for _ in range(25):
            J = int(rng.integers(3, 9))
            K = int(rng.integers(3, 9))
            g = Grid(PlateGeometry(0.3, 0.01), J=J, K=K)
            field = rng.uniform(250.0, 450.0, g.n_cells)
            fluxes = random_fluxes(g, rng, scale=1e4)
            rhs = assemble_rhs(field, g, material, fluxes)
            total = weighted_rhs_sum(field, rhs, g, material)
            boundary = (g.dx2 * (fluxes.left.sum() + fluxes.right.sum())
                        + g.dx1 * (fluxes.top.sum() + fluxes.underside.sum()))
            gross = float(np.sum(np.abs(
                material.volumetric_heat_coefficient(field) * rhs
            )) * g.dx1 * g.dx2)
            assert abs(total - boundary) <= 1e-9 * max(abs(boundary), gross)

    @settings(max_examples=100, deadline=None)
    @given(J=st.integers(2, 30), K=st.integers(2, 30), M=st.sampled_from([0.0, 30.0]),
           count=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_balances_boundary_flux_total_property(self, preset1, J, K, M,
                                                   count, seed):
        # The flux totals come from boundary_fluxes: emission of either sign
        # around the 300 K ambient and heater inputs of either sign, under
        # the flat (M = 0) and the bump (M = 30) actuator shapes.
        material, exchange = preset1.material, preset1.exchange
        rng = np.random.default_rng(seed)
        g = Grid(PlateGeometry(0.3, 0.01), J=J, K=K)
        bank = ActuatorBank.build(g, DeviceSpec(min(count, J), m=1.0, M=M, nu=4.0))
        field = rng.uniform(200.0, 900.0, g.n_cells)
        u = rng.uniform(-1e5, 1e5, bank.count)
        fluxes = boundary_fluxes(field, g, exchange, bank, u)
        rhs = assemble_rhs(field, g, material, fluxes)
        total = weighted_rhs_sum(field, rhs, g, material)
        boundary = (g.dx2 * (fluxes.left.sum() + fluxes.right.sum())
                    + g.dx1 * (fluxes.top.sum() + fluxes.underside.sum()))
        gross = float(np.sum(np.abs(
            material.volumetric_heat_coefficient(field) * rhs
        )) * g.dx1 * g.dx2)
        assert abs(total - boundary) <= 1e-9 * max(abs(boundary), gross)
