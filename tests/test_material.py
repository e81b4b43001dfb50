import numpy as np
import pytest

from heatplate import SurfaceExchange, ThermalMaterial


class TestThermalConductivity:
    def test_reference_values(self, material):
        assert material.thermal_conductivity(0.0) == 10.0
        assert material.thermal_conductivity(400.0) == pytest.approx(50.0, rel=1e-12)

    def test_zero_slope_is_constant(self):
        mat = ThermalMaterial(rho=7800, c0=330, c1=0.4, lambda0=10, lambda1=0.0)
        assert mat.thermal_conductivity(777.0) == 10.0


class TestEmittedFlux:
    def test_equilibrium_is_exactly_zero(self, exchange):
        assert exchange.emitted_flux(300.0) == 0.0

    def test_hot_surface(self, exchange):
        # -10*100 - 0.6*5.67e-8*(400^4 - 300^4)
        assert exchange.emitted_flux(400.0) == pytest.approx(-1595.35, abs=0.01)

    def test_insulated_surface(self):
        exch = SurfaceExchange(h=0.0, emissivity=0.0, theta_amb=300.0)
        for theta in (0.0, 300.0, 1234.5):
            assert exch.emitted_flux(theta) == 0.0

    def test_signs_around_ambient(self, exchange):
        assert exchange.emitted_flux(400.0) < 0
        assert exchange.emitted_flux(200.0) > 0

    def test_strictly_decreasing(self, exchange):
        theta = np.linspace(0.0, 2000.0, 400)
        flux = exchange.emitted_flux(theta)
        assert (np.diff(flux) < 0).all()


class TestVolumetricHeatCoefficient:
    def test_reference_values(self, material):
        assert material.volumetric_heat_coefficient(300.0) == pytest.approx(3_510_000.0, rel=1e-12)
        assert material.volumetric_heat_coefficient(0.0) == pytest.approx(2_574_000.0, rel=1e-12)

    def test_unit_material(self):
        mat = ThermalMaterial(rho=1.0, c0=1.0, c1=0.0, lambda0=1.0, lambda1=0.0)
        assert mat.volumetric_heat_coefficient(555.0) == 1.0

    def test_positive_over_admissible_range(self, material):
        theta = np.linspace(0.0, material.theta_cap, 50)
        assert (material.volumetric_heat_coefficient(theta) > 0).all()
        assert (material.thermal_conductivity(theta) > 0).all()


class TestValidation:
    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError, match="rho"):
            ThermalMaterial(rho=0.0, c0=330, c1=0.4, lambda0=10, lambda1=0.1)

    def test_rejects_capacity_negative_within_range(self):
        # c(3000) = 330 - 0.2*3000 < 0
        with pytest.raises(ValueError, match="heat capacity"):
            ThermalMaterial(rho=7800, c0=330, c1=-0.2, lambda0=10, lambda1=0.1)

    def test_rejects_conductivity_negative_within_range(self):
        with pytest.raises(ValueError, match="conductivity"):
            ThermalMaterial(rho=7800, c0=330, c1=0.4, lambda0=10, lambda1=-0.01)

    def test_negative_slopes_fine_with_smaller_cap(self):
        mat = ThermalMaterial(rho=7800, c0=330, c1=-0.2, lambda0=10, lambda1=-0.01,
                              theta_cap=500.0)
        assert mat.volumetric_heat_coefficient(500.0) > 0

    @pytest.mark.parametrize("kwargs", [
        dict(h=-1.0, emissivity=0.6),
        dict(h=10.0, emissivity=1.5),
        dict(h=10.0, emissivity=-0.1),
        dict(h=10.0, emissivity=0.6, sigma=0.0),
        dict(h=10.0, emissivity=0.6, theta_amb=-5.0),
    ])
    def test_rejects_bad_exchange(self, kwargs):
        with pytest.raises(ValueError):
            SurfaceExchange(**kwargs)
