import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatplate import ActuatorBank, DeviceSpec, Grid, PlateGeometry, SensorBank, devices
from heatplate.devices import BoundaryPartition, Characterization


def partitions(length, count):
    """The equal intervals that a bank of `count` devices occupies."""
    edges = np.linspace(0.0, length, count + 1)
    return [BoundaryPartition(edges[n], edges[n + 1]) for n in range(count)]


def makes_a_cell(size):
    """Whether a grid accepts a cell of this size: its square and the
    square's reciprocal are finite nonzero floats."""
    return 0 < size * size < math.inf and 1 / (size * size) < math.inf


def per_device_table(grid, spec, kind):
    """The weight table built one device at a time, with scalar intervals.

    The reference for the bank-wide fold in devices._weight_table: it scans
    each interval for a cell center instead of comparing count with J.
    """
    x = grid.x1_centers()
    table = np.empty((spec.count, grid.J))
    for n, part in enumerate(partitions(grid.geometry.L, spec.count)):
        char = Characterization(spec.m, spec.M, spec.nu, part.midpoint)
        table[n] = char.value(part, x)
        if not table[n].any():
            if not part.contains(x).any():
                raise ValueError(f"count: {kind} {n} of {spec.count} covers no "
                                 f"cell center on J = {grid.J} columns")
            raise ValueError(f"{'m' if spec.m == 0 else 'M'}: {kind} {n} has "
                             "zero weight at every cell center")
    return table


@pytest.fixture
def nominal_bank(grid):
    return ActuatorBank.build(grid, DeviceSpec(5, m=1.0, M=0.0, nu=4.0))


@pytest.fixture
def realistic_bank(grid):
    return ActuatorBank.build(grid, DeviceSpec(5, m=1.0, M=30.0, nu=4.0))


@pytest.fixture
def sensor_bank(grid):
    return SensorBank.build(grid, DeviceSpec(5, m=1.0, M=10.0, nu=4.0))


class TestCharacterization:
    def test_indicator_inside_partition(self):
        ch = Characterization(m=1.0, M=0.0, nu=4.0, center=0.03)
        part = BoundaryPartition(0.0, 0.06)
        x = np.array([0.0, 0.01, 0.0599])
        assert (ch.value(part, x) == 1.0).all()

    def test_zero_outside_partition(self):
        ch = Characterization(m=1.0, M=30.0, nu=4.0, center=0.03)
        part = BoundaryPartition(0.0, 0.06)
        assert (ch.value(part, np.array([0.06, 0.07, 0.29])) == 0.0).all()

    def test_peak_at_center(self):
        ch = Characterization(m=1.0, M=30.0, nu=4.0, center=0.03)
        part = BoundaryPartition(0.0, 0.06)
        assert ch.value(part, 0.03) == 1.0

    def test_bump_value(self):
        # exp(-(30*0.0285)^4) evaluated directly
        ch = Characterization(m=1.0, M=30.0, nu=4.0, center=0.03)
        part = BoundaryPartition(0.0, 0.06)
        expected = math.exp(-(30.0 * 0.0285) ** 4)
        assert ch.value(part, 0.0015) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5860, abs=1e-3)

    def test_half_open_membership(self):
        part = BoundaryPartition(0.06, 0.12)
        assert part.contains(0.06)
        assert not part.contains(0.12)

    # The profile's parameter rules live in DeviceSpec, which every profile
    # is built from; each case breaks one rule.
    @pytest.mark.parametrize("kwargs", [
        dict(m=1.2, M=0.0, nu=4.0),
        dict(m=-0.1, M=0.0, nu=4.0),
        dict(m=1.0, M=-1.0, nu=4.0),
        dict(m=1.0, M=10.0, nu=-1.0),
        dict(m=1.0, M=0.0, nu=0.0),  # 0**0 ambiguity
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError, match=r"^(m|M|nu): must be"):
            DeviceSpec(5, **kwargs)


class TestActuatorBank:
    def test_nominal_weights_are_all_one(self, nominal_bank):
        assert nominal_bank.weight_table.shape == (5, 100)
        assert (nominal_bank.weight_table.sum(axis=0) == 1.0).all()
        assert set(np.unique(nominal_bank.weight_table)) == {0.0, 1.0}

    def test_indicator_rows_match_partition_membership(self, nominal_bank, grid):
        x = grid.x1_centers()
        for part, row in zip(partitions(0.30, 5), nominal_bank.weight_table):
            assert (row == part.contains(x).astype(float)).all()

    def test_realistic_weights_peak_at_center(self, realistic_bank, grid):
        x = grid.x1_centers()
        for part, row in zip(partitions(0.30, 5), realistic_bank.weight_table):
            inside = part.contains(x)
            assert (row[~inside] == 0.0).all()
            # weights fall monotonically from the center toward the edges
            dist = np.abs(x[inside] - part.midpoint)
            order = np.argsort(dist)
            assert (np.diff(row[inside][order]) <= 1e-15).all()
            assert row.max() > 0.999

    def test_weights_within_unit_interval(self, realistic_bank, sensor_bank):
        for table in (realistic_bank.weight_table, sensor_bank.weight_table):
            assert (table >= 0.0).all() and (table <= 1.0).all()

    def test_one_cell_per_partition(self):
        g = Grid(PlateGeometry(0.30, 0.01), J=5, K=2)
        bank = ActuatorBank.build(g, DeviceSpec(5, m=1.0, M=0.0, nu=4.0))
        assert (bank.weight_table == np.eye(5)).all()

    def test_disjoint_support(self, realistic_bank):
        nonzero_per_cell = (realistic_bank.weight_table > 0).sum(axis=0)
        assert (nonzero_per_cell <= 1).all()

    def test_rejects_partition_without_cell_center(self):
        g = Grid(PlateGeometry(0.30, 0.01), J=5, K=2)  # centers every 0.06
        spec = DeviceSpec(10, m=1.0, M=0.0, nu=4.0)    # width 0.03
        with pytest.raises(ValueError, match="no cell center"):
            ActuatorBank.build(g, spec)

    @settings(max_examples=300, deadline=None)
    @given(J=st.integers(2, 200), data=st.data(),
           m=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0]),
                       st.floats(0.0, 1.0)),
           M=st.one_of(st.sampled_from([0.0, 10.0, 30.0, 1e6, 1e300]),
                       st.floats(0.0, 1e4)),
           nu=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 4.0, 64.0]),
                        st.floats(0.0, 16.0)),
           length=st.one_of(st.sampled_from([0.30, 3.0, 1e150]),
                            st.floats(1e-300, 1e300)))
    def test_bank_fold_matches_the_per_device_loop(self, J, data, m, M, nu, length):
        # Both bank kinds build the same bytes, or raise the same text, as
        # the per-device loop, wherever the bank fits its grid.
        count = data.draw(st.integers(1, J), label="count")
        dx = length / J
        assume(makes_a_cell(dx) and not (nu == 0 and M == 0))
        g = Grid(PlateGeometry(length, 0.01), J=J, K=2)
        spec = DeviceSpec(count, m=m, M=M, nu=nu)

        def outcome(cls):
            try:
                return cls.build(g, spec).weight_table.tobytes()
            except ValueError as exc:
                return str(exc)

        for cls in (ActuatorBank, SensorBank):
            folded = outcome(cls)
            with mock.patch.object(devices, "_weight_table", per_device_table):
                assert outcome(cls) == folded

    @settings(max_examples=200, deadline=None)
    @given(J=st.integers(2, 300), count=st.integers(1, 60),
           length=st.floats(1e-300, 1e300))
    def test_equal_intervals_tile_the_columns(self, J, count, length):
        # Every cell center lies in exactly one half-open interval, so a
        # flat bank's columns each sum to one; with count <= J every
        # interval is at least a cell wide and holds a center, and with
        # count > J some interval must hold none.  A cell width whose square,
        # or that square's reciprocal, is not a finite nonzero float makes no
        # grid: the error names J when the length itself passes, else the length.
        dx = length / J
        if not makes_a_cell(dx):
            key = "J" if makes_a_cell(length) else "geometry.L"
            with pytest.raises(ValueError, match=f"^{key}: cell size"):
                Grid(PlateGeometry(length, 0.01), J=J, K=2)
            return
        g = Grid(PlateGeometry(length, 0.01), J=J, K=2)
        spec = DeviceSpec(count, m=1.0, M=0.0, nu=4.0)
        if count > J:
            with pytest.raises(ValueError) as info:
                ActuatorBank.build(g, spec)
            assert str(info.value) == (f"count: {count} actuators on J = {J} "
                                       "columns: at least one covers no cell center")
            return
        table = ActuatorBank.build(g, spec).weight_table
        assert (table.sum(axis=0) == 1.0).all()
        assert (table != 0.0).any(axis=1).all()


class TestInducedFlux:
    def test_zero_input(self, realistic_bank):
        assert (realistic_bank.induced_flux(np.zeros(5)) == 0.0).all()

    def test_nominal_equal_inputs_give_constant_flux(self, nominal_bank):
        p = 2.5e5
        assert (nominal_bank.induced_flux(np.full(5, p)) == p).all()

    def test_single_channel_extracts_column(self, realistic_bank):
        p = 1e6
        u = np.zeros(5)
        u[0] = p
        flux = realistic_bank.induced_flux(u)
        assert flux == pytest.approx(p * realistic_bank.weight_table[0], rel=1e-12)

    def test_rejects_length_mismatch(self, nominal_bank):
        with pytest.raises(ValueError, match="5"):
            nominal_bank.induced_flux(np.zeros(4))

    def test_linearity(self, realistic_bank):
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 1e6, 5)
        v = rng.uniform(0, 1e6, 5)
        a, b = 0.7, -1.3
        combined = realistic_bank.induced_flux(a * u + b * v)
        split = a * realistic_bank.induced_flux(u) + b * realistic_bank.induced_flux(v)
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-9)


class TestSensorBank:
    def test_reference_sensor_layout(self, sensor_bank):
        assert sensor_bank.count == 5
        assert ((sensor_bank.weight_table > 0).sum(axis=1) == 20).all()
        assert (sensor_bank.weight_table.max(axis=1) > 0.999).all()

    def test_indicator_mass_is_partition_width(self, grid):
        bank = SensorBank.build(grid, DeviceSpec(5, m=1.0, M=0.0, nu=4.0))
        assert bank.mass == pytest.approx(np.full(5, 0.06), rel=1e-12)

    def test_single_sensor_mass_is_plate_length(self, grid):
        bank = SensorBank.build(grid, DeviceSpec(1, m=1.0, M=0.0, nu=4.0))
        assert bank.mass == pytest.approx([0.30], rel=1e-12)

    def test_rejects_zero_mass(self, grid):
        with pytest.raises(ValueError, match="m: sensor 0 has zero weight"):
            SensorBank.build(grid, DeviceSpec(5, m=0.0, M=10.0, nu=4.0))

    def test_rejects_mass_that_underflows(self, grid):
        # every weight is the smallest subnormal, and 100 of them times
        # dx1 = 3e-3 round to 0
        with pytest.raises(ValueError, match="m: sensor 0 has a quadrature mass "
                                             "that underflows to 0"):
            SensorBank.build(grid, DeviceSpec(1, m=5e-324, M=0.0, nu=4.0))


class TestMeasure:
    @pytest.mark.parametrize("L", [0.3, 0.6])
    def test_uniform_field(self, grid, L):
        # each bank reads with the dx1 of the grid it was built on, so a
        # plate twice as long of equal J x K reads the same temperature
        plate = Grid(PlateGeometry(L, grid.geometry.H), grid.J, grid.K)
        bank = SensorBank.build(plate, DeviceSpec(5, m=1.0, M=10.0, nu=4.0))
        field = np.full(plate.n_cells, 350.0)
        assert bank.measure(field) == pytest.approx(np.full(5, 350.0), rel=1e-12)

    def test_indicator_sensors_average_partition(self, grid):
        bank = SensorBank.build(grid, DeviceSpec(5, m=1.0, M=0.0, nu=4.0))
        field = np.zeros(grid.n_cells)
        top = 300.0 + 100.0 * grid.x1_centers() / 0.30
        field[(grid.K - 1) * grid.J:] = top
        y = bank.measure(field)
        expected = [top[20 * n:20 * (n + 1)].mean() for n in range(5)]
        assert y == pytest.approx(expected, rel=1e-12)

    def test_weighted_average_against_bruteforce(self, sensor_bank, grid):
        field = np.zeros(grid.n_cells)
        x = grid.x1_centers()
        top = 300.0 + 100.0 * x / 0.30
        field[(grid.K - 1) * grid.J:] = top
        y = sensor_bank.measure(field)
        # brute-force quadrature, one python loop per sensor
        expected = []
        for part in partitions(0.30, 5):
            char = Characterization(1.0, 10.0, 4.0, part.midpoint)
            num = den = 0.0
            for j in range(grid.J):
                if part.lo <= x[j] < part.hi:
                    g = char.m * math.exp(-abs(char.M * (x[j] - char.center)) ** char.nu)
                    num += g * top[j] * grid.dx1
                    den += g * grid.dx1
            expected.append(num / den)
        assert y == pytest.approx(expected, rel=1e-12)
        # symmetric weights over a linear field read the partition centers
        assert y == pytest.approx([310.0, 330.0, 350.0, 370.0, 390.0], rel=1e-9)

    def test_readings_bounded_by_topside_row(self, sensor_bank, grid):
        rng = np.random.default_rng(3)
        for _ in range(20):
            field = rng.uniform(250.0, 500.0, grid.n_cells)
            top = field[(grid.K - 1) * grid.J:]
            y = sensor_bank.measure(field)
            assert (y >= top.min() - 1e-9).all()
            assert (y <= top.max() + 1e-9).all()

    def test_peak_magnitude_cancels(self, grid):
        # halving every weight scales numerator and mass alike; with the
        # 0.5 factor exact in binary the readings match bitwise
        full = SensorBank.build(grid, DeviceSpec(5, m=1.0, M=10.0, nu=4.0))
        half = SensorBank.build(grid, DeviceSpec(5, m=0.5, M=10.0, nu=4.0))
        rng = np.random.default_rng(5)
        field = rng.uniform(250.0, 500.0, grid.n_cells)
        assert (full.measure(field) == half.measure(field)).all()

    def test_rejects_wrong_field_size(self, sensor_bank, grid):
        with pytest.raises(ValueError, match="cells"):
            sensor_bank.measure(np.zeros(grid.n_cells - 1))
