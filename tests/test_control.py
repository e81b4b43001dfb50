import warnings

import numpy as np
import pytest

from heatplate import (ControllerConfig, load_config, proportional_law,
                       run_simulation)


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

    def test_negative_errors_form_no_product(self):
        # the error is clipped before the gain, so no kp*e forms for e <= 0
        ctrl = ControllerConfig(kp=1e307, y_ref=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = proportional_law(ctrl, np.array([-1e10, np.nan, 0.0]))
        assert u.tobytes() == np.zeros(3).tobytes()  # +0.0 each

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
        assert ControllerConfig(kp=(), y_ref=400.0).channels == 0

    def test_rejects_negative_u_max(self):
        # with u_min <= u_max this keeps every input at 0 or above
        with pytest.raises(ValueError, match=r"^u_max: must be >= 0 "
                                             r"\(heaters cannot cool\), got -1\.0$"):
            ControllerConfig(kp=1.0, y_ref=400.0, u_min=-5.0, u_max=-1.0)
        assert ControllerConfig(kp=1.0, y_ref=400.0, u_min=-5.0, u_max=0.0).u_max == 0.0



class TestOneGain:
    def test_one_gain_serves_any_channel_count(self):
        ctrl = ControllerConfig(kp=2.0, y_ref=400.0)
        assert ctrl.kp == 2.0 and ctrl.channels is None
        for e in (np.array([0.5, -2.0, 1.0, 0.0, 3.0]), np.array([7.0, -1.0, 0.25])):
            expected = np.where(e > 0, 2.0 * e, 0.0)
            assert proportional_law(ctrl, e).tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match=r"expected 1-D errors, got shape \(5, 1\)"):
            proportional_law(ctrl, np.ones((5, 1)))

    def test_one_gain_runs_bitwise_like_a_list_of_gains(self):
        short = '{"grid": {"J": 20, "K": 8}, "time": {"t_final": 0.05}, '
        one, listed = (run_simulation(load_config(short + '"controller": {"kp": %s}}' % kp))
                       for kp in ("1e4", "[1e4, 1e4, 1e4, 1e4, 1e4]"))
        assert one.config.controller.channels is None
        assert listed.config.controller.channels == 5
        for name in ("final_field", "inputs", "outputs"):
            assert getattr(one, name).tobytes() == getattr(listed, name).tobytes(), name
