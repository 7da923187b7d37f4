"""Tests for parameter/target encoding (Section 3.3)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiTargetScaler,
    ParameterEncoder,
    TargetScaler,
    design_matrix,
)
from repro.designspace import (
    BooleanParameter,
    CardinalParameter,
    DesignSpace,
    NominalParameter,
    PredicateConstraint,
)
from repro.experiments import STUDY_NAMES, get_study


class TestParameterEncoder:
    def test_feature_layout(self, tiny_space):
        enc = ParameterEncoder(tiny_space)
        # size, ways, policy one-hot (2), prefetch
        assert enc.n_features == 5
        assert enc.feature_names == (
            "size",
            "ways",
            "policy=WT",
            "policy=WB",
            "prefetch",
        )

    def test_figure_34_example(self):
        """Figure 3.4: an 8KB write-back cache with (WT,WB) policy and
        (4,8,16)KB sizes encodes as WT=0, WB=1, size=(8-4)/(16-4)."""
        space = DesignSpace(
            "fig34",
            [
                NominalParameter("policy", ("WT", "WB")),
                CardinalParameter("size_kb", (4, 8, 16)),
            ],
        )
        enc = ParameterEncoder(space, cardinal_encoding="value")
        vec = enc.encode({"policy": "WB", "size_kb": 8})
        np.testing.assert_allclose(vec, [0.0, 1.0, (8 - 4) / (16 - 4)])

    def test_rank_encoding(self):
        space = DesignSpace(
            "s", [CardinalParameter("size", (8, 16, 32, 64))]
        )
        enc = ParameterEncoder(space, cardinal_encoding="rank")
        values = [enc.encode({"size": v})[0] for v in (8, 16, 32, 64)]
        np.testing.assert_allclose(values, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_value_encoding(self):
        space = DesignSpace(
            "s", [CardinalParameter("size", (8, 16, 32, 64))]
        )
        enc = ParameterEncoder(space, cardinal_encoding="value")
        values = [enc.encode({"size": v})[0] for v in (8, 16, 32, 64)]
        np.testing.assert_allclose(values, [0.0, 8 / 56, 24 / 56, 1.0])

    def test_boolean_encoding(self, tiny_space):
        enc = ParameterEncoder(tiny_space)
        on = enc.encode({"size": 8, "ways": 1, "policy": "WT", "prefetch": True})
        off = enc.encode({"size": 8, "ways": 1, "policy": "WT", "prefetch": False})
        assert on[-1] == 1.0 and off[-1] == 0.0

    def test_one_hot_exactly_one(self, tiny_space):
        enc = ParameterEncoder(tiny_space)
        for policy in ("WT", "WB"):
            vec = enc.encode(
                {"size": 8, "ways": 1, "policy": policy, "prefetch": False}
            )
            assert vec[2] + vec[3] == 1.0

    def test_all_features_in_unit_interval(self, tiny_space, rng):
        enc = ParameterEncoder(tiny_space)
        matrix = enc.encode_many(tiny_space.sample(10, rng))
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)

    def test_encode_space_covers_everything(self, tiny_space):
        matrix = ParameterEncoder(tiny_space).encode_space()
        assert matrix.shape == (len(tiny_space), 5)
        # rows are distinct
        assert len(np.unique(matrix, axis=0)) == len(tiny_space)

    def test_encode_many_empty(self, tiny_space):
        assert ParameterEncoder(tiny_space).encode_many([]).shape == (0, 5)

    def test_rejects_unknown_encoding(self, tiny_space):
        with pytest.raises(ValueError):
            ParameterEncoder(tiny_space, cardinal_encoding="log")

    def test_single_value_parameter_encodes_zero(self):
        space = DesignSpace("s", [CardinalParameter("x", (5,))])
        assert ParameterEncoder(space).encode({"x": 5})[0] == 0.0

    def test_rejects_invalid_value(self, tiny_space):
        enc = ParameterEncoder(tiny_space)
        with pytest.raises(ValueError):
            enc.encode({"size": 12, "ways": 1, "policy": "WT", "prefetch": False})


def _reference_matrix(space, encoding):
    """The point-by-point encoding :func:`design_matrix` must equal."""
    encoder = ParameterEncoder(space, encoding)
    return np.vstack([encoder.encode(config) for config in space])


def _assert_gathered_matrix_is_reference(space, encoding):
    matrix = design_matrix(space, encoding)
    reference = _reference_matrix(space, encoding)
    assert matrix.dtype == reference.dtype
    assert matrix.shape == reference.shape
    assert matrix.tobytes() == reference.tobytes()
    assert not matrix.flags.writeable


@st.composite
def small_spaces(draw):
    """Small random spaces mixing cardinal (single-level too), nominal
    and boolean parameters, with or without a constraint."""
    parameters = []
    for position in range(draw(st.integers(min_value=1, max_value=4))):
        name = f"p{position}"
        kind = draw(st.sampled_from(("cardinal", "nominal", "boolean")))
        if kind == "cardinal":
            values = draw(
                st.lists(
                    st.integers(min_value=-50, max_value=50),
                    min_size=1, max_size=5, unique=True,
                )
            )
            parameters.append(CardinalParameter(name, sorted(values)))
        elif kind == "nominal":
            count = draw(st.integers(min_value=1, max_value=4))
            parameters.append(
                NominalParameter(name, [f"v{i}" for i in range(count)])
            )
        else:
            parameters.append(BooleanParameter(name))
    constraints = []
    if draw(st.booleans()):
        modulus = draw(st.integers(min_value=2, max_value=4))

        def allows(config, parameters=tuple(parameters)):
            # the all-first-levels point always passes, so the space is
            # never empty
            ranks = sum(p.index_of(config[p.name]) for p in parameters)
            return ranks % modulus != modulus - 1

        constraints.append(
            PredicateConstraint([p.name for p in parameters], allows)
        )
    return DesignSpace("random", parameters, constraints)


class TestDesignMatrix:
    @pytest.mark.parametrize("encoding", ["rank", "value"])
    @pytest.mark.parametrize("study", STUDY_NAMES)
    def test_registered_studies_match_reference(self, study, encoding):
        _assert_gathered_matrix_is_reference(get_study(study).space, encoding)

    @given(small_spaces(), st.sampled_from(["rank", "value"]))
    @settings(max_examples=60, deadline=None)
    def test_random_spaces_match_reference(self, space, encoding):
        _assert_gathered_matrix_is_reference(space, encoding)

    @given(small_spaces())
    @settings(max_examples=60, deadline=None)
    def test_level_indices_rows_are_point_indices(self, space):
        levels = space.level_indices()
        assert levels.shape == (len(space), len(space.parameters))
        for i, row in enumerate(levels):
            assert tuple(row) == space.config_to_indices(space.config_at(i))


class TestTargetScaler:
    def test_round_trip(self, rng):
        y = rng.random(50) * 3 + 0.5
        scaler = TargetScaler().fit(y)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(y)), y
        )

    def test_range_mapped_to_unit(self, rng):
        y = rng.random(50) * 3 + 0.5
        scaled = TargetScaler().fit(y).transform(y)
        assert scaled.min() == pytest.approx(0.0)
        assert scaled.max() == pytest.approx(1.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            TargetScaler().fit(np.full(5, 2.0))

    def test_non_finite_targets_rejected(self):
        y = np.array([1.0, np.nan, 2.0, np.inf])
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            TargetScaler().fit(y)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            TargetScaler().transform(np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TargetScaler().fit(np.array([]))

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        y = np.array(values)
        assume(y.max() > y.min())  # degenerate sets are rejected by fit
        scaler = TargetScaler().fit(y)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(y)), y, rtol=1e-9, atol=1e-9
        )


class TestMultiTargetScaler:
    def test_independent_columns(self, rng):
        y = np.column_stack([rng.random(20), rng.random(20) * 100])
        scaler = MultiTargetScaler().fit(y)
        scaled = scaler.transform(y)
        assert scaled[:, 0].max() == pytest.approx(1.0)
        assert scaled[:, 1].max() == pytest.approx(1.0)
        np.testing.assert_allclose(scaler.inverse_transform(scaled), y)

    def test_width_checked(self, rng):
        scaler = MultiTargetScaler().fit(rng.random((10, 2)))
        with pytest.raises(ValueError):
            scaler.transform(rng.random((10, 3)))

    def test_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            MultiTargetScaler().transform(rng.random((5, 2)))
