import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatplate import _floatrepr
from heatplate._floatrepr import repr_block


def rows_text(values):
    """Each row of repr_block(values) with its padding dropped."""
    return [bytes(row).replace(b"\0", b"").decode("ascii")
            for row in repr_block(values)]


def reprs(values):
    return [repr(float(v)) for v in values]


def count_fallbacks(monkeypatch):
    """The values repr_block sends to repr, collected from now on."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(_floatrepr, "repr", counting_repr, raising=False)
    return calls


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


EDGES = np.concatenate([
    neighbours(2.0 ** np.arange(-60, 70)),
    neighbours(10.0 ** np.arange(-20, 23)),
    neighbours([1e15, 9.999999999999999e14, 1.0, 2.5, 0.5, 5e-324]),
    [0.0, -0.0, np.nan, np.inf, -np.inf, 2.5, -2.5, 123456789012345.6,
     0.1 + 0.2, 300.0, 1e22, 1.7976931348623157e308],
])


class TestReprBlock:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_arbitrary_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert rows_text(values) == reprs(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=64))
    def test_arbitrary_floats(self, values):
        assert rows_text(values) == reprs(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1.0, 1e15), min_size=1, max_size=64),
           st.booleans())
    def test_fast_domain(self, values, negate):
        values = -np.array(values) if negate else np.array(values)
        assert rows_text(values) == reprs(values)

    def test_edge_values(self):
        assert rows_text(EDGES) == reprs(EDGES)

    def test_shape_and_dtype(self):
        chars = repr_block([1.5, -0.0, 1e-300, 412.3456789012345])
        assert chars.dtype == np.uint8 and chars.shape[0] == 4
        assert repr_block([]).shape[0] == 0

    def test_field_rarely_falls_back(self, monkeypatch):
        # A 300-420 K field, times from 1 to 10 s and heater powers up to
        # 1.1e6 W/m^2 lie in the fast domain; a regression that sends them
        # to the per-value path would still print the right bytes.
        calls = count_fallbacks(monkeypatch)
        rng = np.random.default_rng(7)
        for values in (rng.uniform(300.0, 420.0, 320_000),
                       np.linspace(1.0, 10.0, 90_001),
                       rng.uniform(1.0, 1.1e6, 200_000)):
            calls.clear()
            for start in range(0, values.size, 2048):
                repr_block(values[start:start + 2048])
            assert len(calls) <= 0.001 * values.size

    @pytest.mark.parametrize("values", [
        -np.random.default_rng(8).uniform(1.0, 1e6, 2048),
        np.random.default_rng(9).uniform(1e8, 1e15, 2048),
    ], ids=["negative", "from-1e8"])
    def test_outside_the_domain_is_repr(self, values, monkeypatch):
        calls = count_fallbacks(monkeypatch)
        assert rows_text(values) == reprs(values)
        assert calls == values.tolist()

