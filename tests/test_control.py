import numpy as np
import pytest

from heatplate import ControllerConfig, proportional_law


@pytest.fixture
def ctrl():
    return ControllerConfig(kp=(1e4,) * 5, y_ref=400.0)


class TestProportionalLaw:
    def test_startup_error(self, ctrl):
        u = proportional_law(ctrl, np.full(5, 100.0))
        assert (u == 1e6).all()

    def test_nonpositive_errors_give_zero(self, ctrl):
        u = proportional_law(ctrl, np.array([0.0, -1.0, -100.0, 0.0, -0.5]))
        assert (u == 0.0).all()

    def test_componentwise_with_strict_inequality(self, ctrl):
        u = proportional_law(ctrl, np.array([0.5, -2.0, 1.0, 0.0, 3.0]))
        assert u == pytest.approx([5000.0, 0.0, 10000.0, 0.0, 30000.0])

    def test_upper_clamp(self):
        ctrl = ControllerConfig(kp=(1e4,) * 2, y_ref=400.0, u_max=2e4)
        u = proportional_law(ctrl, np.array([100.0, 1.0]))
        assert u == pytest.approx([2e4, 1e4])

    def test_nonnegative_with_default_bounds(self, ctrl):
        rng = np.random.default_rng(13)
        for _ in range(50):
            e = rng.uniform(-200.0, 200.0, 5)
            assert (proportional_law(ctrl, e) >= 0.0).all()

    def test_monotone_in_each_component(self, ctrl):
        rng = np.random.default_rng(17)
        e = rng.uniform(-50.0, 50.0, 5)
        base = proportional_law(ctrl, e)
        for n in range(5):
            bumped = e.copy()
            bumped[n] += 1.0
            assert proportional_law(ctrl, bumped)[n] >= base[n]

    def test_channels_decoupled_bitwise(self, ctrl):
        e = np.array([12.0, -3.0, 0.7, 45.0, -0.1])
        base = proportional_law(ctrl, e)
        perturbed = e.copy()
        perturbed[2] = 99.0
        changed = proportional_law(ctrl, perturbed)
        mask = np.arange(5) != 2
        assert (changed[mask] == base[mask]).all()

    def test_rejects_wrong_length(self, ctrl):
        with pytest.raises(ValueError, match="expected 5 errors"):
            proportional_law(ctrl, np.zeros(4))


class TestControllerConfig:
    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError, match="gains"):
            ControllerConfig(kp=(1.0, -1.0), y_ref=400.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="u_min"):
            ControllerConfig(kp=(1.0,), y_ref=400.0, u_min=10.0, u_max=5.0)

    def test_channel_count(self):
        assert ControllerConfig(kp=(1.0, 2.0, 3.0), y_ref=400.0).channels == 3
