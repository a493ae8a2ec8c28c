"""Parameter grids and the product space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topologies import GridParam, ParameterSpace


class TestGridParam:
    def test_paper_notation(self):
        # The paper's TIA width grid: [2, 10, 2] um.
        p = GridParam("w", 2, 10, 2, scale=1e-6)
        assert p.count == 5
        assert p.value(0) == pytest.approx(2e-6)
        assert p.value(4) == pytest.approx(10e-6)
        assert p.all_values() == pytest.approx([2e-6, 4e-6, 6e-6, 8e-6, 10e-6])

    def test_fractional_grid(self):
        # The op-amp's Cc grid: [0.1, 10.0, 0.1] pF -> 100 points.
        p = GridParam("cc", 0.1, 10.0, 0.1, scale=1e-12)
        assert p.count == 100
        assert p.value(0) == pytest.approx(0.1e-12)
        assert p.value(99) == pytest.approx(10e-12)

    def test_center_index(self):
        assert GridParam("x", 0, 9, 1).center_index == 5
        assert GridParam("x", 1, 100, 1).center_index == 50

    def test_index_of_roundtrip(self):
        p = GridParam("w", 2, 10, 2, scale=1e-6)
        for i in range(p.count):
            assert p.index_of(p.value(i)) == i

    def test_index_of_clips(self):
        p = GridParam("w", 2, 10, 2)
        assert p.index_of(0.0) == 0
        assert p.index_of(99.0) == p.count - 1

    def test_out_of_range_index_raises(self):
        p = GridParam("w", 2, 10, 2)
        with pytest.raises(TopologyError):
            p.value(5)
        with pytest.raises(TopologyError):
            p.value(-1)

    def test_validation(self):
        with pytest.raises(TopologyError):
            GridParam("", 0, 1, 1)
        with pytest.raises(TopologyError):
            GridParam("x", 0, 1, 0)
        with pytest.raises(TopologyError):
            GridParam("x", 5, 1, 1)


def _space() -> ParameterSpace:
    return ParameterSpace([
        GridParam("a", 0, 9, 1),
        GridParam("b", 2, 10, 2, scale=1e-6),
        GridParam("c", 0.1, 1.0, 0.1),
    ])


class TestParameterSpace:
    def test_cardinality(self):
        assert _space().cardinality == 10 * 5 * 10

    def test_paper_opamp_cardinality(self):
        from repro.topologies import TwoStageOpAmp
        space = TwoStageOpAmp().parameter_space
        assert space.cardinality == pytest.approx(1e14, rel=1e-9)

    def test_center(self):
        center = _space().center
        assert center.tolist() == [5, 2, 5]

    def test_clip(self):
        space = _space()
        clipped = space.clip(np.array([-3, 99, 5]))
        assert clipped.tolist() == [0, 4, 5]

    def test_contains(self):
        space = _space()
        assert space.contains(np.array([0, 0, 0]))
        assert space.contains(space.center)
        assert not space.contains(np.array([0, 0]))
        assert not space.contains(np.array([0, 0, 10]))

    def test_values_and_indices_roundtrip(self):
        space = _space()
        idx = np.array([1, 3, 7])
        values = space.values(idx)
        assert values["b"] == pytest.approx(8e-6)
        assert np.array_equal(space.indices_of(values), idx)

    def test_values_shape_validation(self):
        with pytest.raises(TopologyError):
            _space().values(np.array([1, 2]))
        with pytest.raises(TopologyError):
            _space().values(np.zeros((2, 2), dtype=int))
        with pytest.raises(TopologyError):
            _space().values(np.zeros((1, 2, 3), dtype=int))

    def test_values_of_a_matrix_are_the_rows_values(self):
        space = _space()
        idx = np.array([[1, 3, 7], [0, 0, 0], [4, 2, 9]])
        assert space.values(idx) == [space.values(row) for row in idx]
        assert space.values(idx[:0]) == []
        idx[2, 1] = space.counts[1]
        with pytest.raises(TopologyError):
            space.values(idx)

    def test_missing_value_key(self):
        with pytest.raises(TopologyError):
            _space().indices_of({"a": 1.0})

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            ParameterSpace([GridParam("a", 0, 1, 1), GridParam("a", 0, 1, 1)])

    def test_normalize_bounds(self):
        space = _space()
        low = space.normalize(np.zeros(3, dtype=int))
        high = space.normalize(space.counts - 1)
        assert np.allclose(low, -1.0)
        assert np.allclose(high, 1.0)

    @given(st.integers(0, 9), st.integers(0, 4), st.integers(0, 9))
    @settings(max_examples=50, deadline=None)
    def test_as_key_hashable_unique(self, a, b, c):
        space = _space()
        key = space.as_key(np.array([a, b, c]))
        assert key == (a, b, c)
        assert hash(key) is not None

    def test_sample_within_bounds(self, rng):
        space = _space()
        for _ in range(100):
            assert space.contains(space.sample(rng))
