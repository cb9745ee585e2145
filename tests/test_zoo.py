from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from multimax.banding import BandingPolicy, PerformanceBand, partition
from multimax.core import ExactRatio, InstanceIndex, LabelVector
from multimax.errors import AnalysisError
from multimax.zoo.classifiers import (
    AxisAlignedTreeClassifier,
    HalfplaneClassifier,
    NearestNeighborsClassifier,
    PolynomialBoundaryClassifier,
    line_params,
)
from multimax.zoo.datasets import (
    DEFAULT_BOX,
    Dataset2D,
    DatasetSpec,
    PointSet,
    generate_dataset,
    grid_point_set,
)
from multimax.zoo.families import FamilySpec, enumerate_family
from multimax.zoo.regions import estimate_disputable_region, grid_centres
from multimax.zoo.scenarios import SCENARIOS, build_scenario


def tiny_dataset(points, labels, box=DEFAULT_BOX):
    ids = tuple(f"p{k:03d}" for k in range(len(points)))
    point_set = PointSet(InstanceIndex(ids), tuple(points))
    return Dataset2D(
        points=point_set,
        labels=LabelVector(point_set.index, tuple(labels)),
        domain_box=box,
    )


class TestDatasets:
    def test_generation_is_reproducible(self):
        spec = DatasetSpec(mode="blobs")
        first = generate_dataset(spec, n_per_class=25, seed=4)
        again = generate_dataset(spec, n_per_class=25, seed=4)
        assert first.points.points == again.points.points
        assert first.labels.values.tolist() == again.labels.values.tolist()
        other = generate_dataset(spec, n_per_class=25, seed=5)
        assert first.points.points != other.points.points

    def test_ids_and_labels(self):
        data = generate_dataset(DatasetSpec(), n_per_class=3, seed=0)
        assert data.index.ids == ("f000", "f001", "f002", "u000", "u001", "u002")
        assert data.labels.values.tolist() == [1, 1, 1, 0, 0, 0]

    def test_points_stay_inside_the_box(self):
        spec = DatasetSpec(mode="halfplanes", margin=1.0)
        data = generate_dataset(spec, n_per_class=80, seed=1)
        (x_lo, x_hi), (y_lo, y_hi) = data.domain_box
        arr = data.points.as_array()
        assert (arr[:, 0] >= x_lo).all() and (arr[:, 0] <= x_hi).all()
        assert (arr[:, 1] >= y_lo).all() and (arr[:, 1] <= y_hi).all()
        # favourable x > margin, unfavourable x < -margin
        assert (arr[:80, 0] > 1.0).all()
        assert (arr[80:, 0] < -1.0).all()

    def test_borderline_points_land_last_with_known_ids(self):
        spec = DatasetSpec(
            mode="blobs",
            borderline_favourable=((0.5, 2.0),),
            borderline_unfavourable=((0.0, -2.0), (0.1, 0.0)),
        )
        data = generate_dataset(spec, n_per_class=5, seed=0)
        assert data.points.points[4] == (0.5, 2.0)
        assert data.points.points[8] == (0.0, -2.0)
        assert data.points.points[9] == (0.1, 0.0)
        assert data.index.ids[4] == "f004"
        assert data.index.ids[9] == "u004"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(mode="spiral")
        with pytest.raises(ValueError):
            DatasetSpec(mode="blobs", std=0.0, favourable_center=(0, 0), unfavourable_center=(0, 0))
        with pytest.raises(ValueError):
            DatasetSpec(mode="halfplanes", margin=7.0)
        with pytest.raises(ValueError):
            DatasetSpec(borderline_favourable=((99.0, 0.0),))
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(), n_per_class=1000, seed=0)

    def test_blob_centre_outside_the_box_refused(self):
        # only construct: generating from such a spec would never return
        with pytest.raises(ValueError, match="outside the domain box"):
            DatasetSpec(favourable_center=(40.0, 0.0), std=0.5)
        with pytest.raises(ValueError, match="outside the domain box"):
            DatasetSpec(unfavourable_center=(0.0, -6.5))
        DatasetSpec(mode="halfplanes", favourable_center=(40.0, 0.0))  # centres unused

    @pytest.mark.parametrize("std", [-0.5, 12.5, 1e4, float("nan"), float("inf")])
    def test_std_outside_the_box_width_refused(self, std):
        # only construct: generating from such a spec would never return
        with pytest.raises(ValueError, match="std must be between 0 and the box width 12.0"):
            DatasetSpec(std=std)

    def test_negative_margin_refused(self):
        with pytest.raises(ValueError, match="margin must be non-negative"):
            DatasetSpec(mode="halfplanes", margin=-2.0)
        data = generate_dataset(DatasetSpec(mode="halfplanes", margin=0.0), n_per_class=20, seed=0)
        arr = data.points.as_array()
        assert (arr[:20, 0] >= 0).all() and (arr[20:, 0] < 0).all()

    def test_borderline_must_fit_class_count(self):
        spec = DatasetSpec(borderline_favourable=((0.0, 0.0), (0.1, 0.0)))
        with pytest.raises(ValueError):
            generate_dataset(spec, n_per_class=1, seed=0)

    def test_grid_point_set(self):
        grid = grid_point_set(((0.0, 2.0), (0.0, 2.0)), per_side=2)
        assert grid.size == 4
        assert set(grid.points) == {(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)}
        assert grid.index.ids[0] == "g000"


class TestHalfplane:
    def test_vertical_boundary(self):
        clf = HalfplaneClassifier(angle=0.0, offset=0.0)
        X = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 5.0)])
        assert clf.predict(X).tolist() == [1, 0, 0]  # boundary itself is unfavourable

    def test_from_line_matches_sign(self):
        clf = HalfplaneClassifier(*line_params(1.0, 0.0, -1.5))  # x > 1.5
        X = np.array([(2.0, 0.0), (1.0, 0.0)])
        assert clf.predict(X).tolist() == [1, 0]

    @given(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        ),
        st.lists(
            st.tuples(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_line_params_preserves_the_halfplane(self, line, points):
        a, b, c = line
        assume(math.hypot(a, b) > 1e-6)
        raw = [a * x + b * y + c for x, y in points]
        assume(all(abs(v) > 1e-9 for v in raw))
        clf = HalfplaneClassifier(*line_params(a, b, c))
        expected = [1 if v > 0 else 0 for v in raw]
        assert clf.predict(np.array(points, dtype=np.float64)).tolist() == expected

    def test_degenerate_line_rejected(self):
        with pytest.raises(ValueError):
            line_params(0.0, 0.0, 1.0)


class TestPolynomial:
    def test_fits_margin_separated_data(self):
        # least squares is regression, not max-margin, so only demand a
        # clean fit when the classes are well apart
        rng = np.random.default_rng(0)
        left = rng.uniform((-5, -5), (-1, 5), size=(30, 2))
        right = rng.uniform((1, -5), (5, 5), size=(30, 2))
        X = np.vstack([left, right])
        y = np.array([0] * 30 + [1] * 30, dtype=np.uint8)
        clf = PolynomialBoundaryClassifier(degree=1).fit(X, y)
        assert (clf.predict(X) == y).all()

    def test_coefficient_count_by_degree(self):
        assert len(PolynomialBoundaryClassifier(degree=1).fit(
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]), np.array([0, 1, 1])
        ).coefficients) == 3
        with pytest.raises(ValueError):
            PolynomialBoundaryClassifier(degree=2, coefficients=(1.0, 2.0))

    def test_perturbed_is_seeded(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [-1.0, 2.0]])
        y = np.array([0, 1, 1, 0])
        base = PolynomialBoundaryClassifier(degree=1).fit(X, y)
        first = base.perturbed(np.random.default_rng(3), 0.1)
        again = base.perturbed(np.random.default_rng(3), 0.1)
        assert first.coefficients == again.coefficients
        assert first.coefficients != base.coefficients

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            PolynomialBoundaryClassifier(degree=1).predict(np.zeros((1, 2)))


class TestNearestNeighbors:
    def test_single_neighbour(self):
        clf = NearestNeighborsClassifier(k=1).fit(
            np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([1, 0])
        )
        assert clf.predict(np.array([[1.0, 0.0], [9.0, 0.0]])).tolist() == [1, 0]

    def test_vote_tie_goes_favourable(self):
        clf = NearestNeighborsClassifier(k=2).fit(
            np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([0, 1])
        )
        assert clf.predict(np.array([[0.0, 0.0]])).tolist() == [1]

    def test_distance_tie_prefers_lower_row(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        clf = NearestNeighborsClassifier(k=1).fit(X, np.array([0, 1]))
        assert clf.predict(np.array([[0.0, 0.0]])).tolist() == [0]
        swapped = NearestNeighborsClassifier(k=1).fit(X[::-1], np.array([1, 0]))
        assert swapped.predict(np.array([[0.0, 0.0]])).tolist() == [1]

    def test_chunked_predictions_match_pointwise(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(250_000, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.uint8)
        clf = NearestNeighborsClassifier(k=3).fit(X, y)
        queries = rng.normal(size=(37, 2))
        full = clf.predict(queries)
        single = np.concatenate([clf.predict(queries[i : i + 1]) for i in range(len(queries))])
        assert (full == single).all()

    def test_without_point(self):
        X = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        clf = NearestNeighborsClassifier(k=1).fit(X, np.array([1, 0, 1]))
        assert clf.predict(np.array([[4.0, 0.0]])).tolist() == [0]
        dropped = clf.without_point(1)
        assert dropped.predict(np.array([[4.0, 0.0]])).tolist() == [1]
        assert clf.predict(np.array([[4.0, 0.0]])).tolist() == [0]  # original untouched
        with pytest.raises(ValueError):
            clf.without_point(3)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            NearestNeighborsClassifier(k=0)
        with pytest.raises(ValueError):
            NearestNeighborsClassifier(k=3).fit(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(RuntimeError):
            NearestNeighborsClassifier(k=1).predict(np.zeros((1, 2)))


class TestTree:
    def test_stump_predicts_above_threshold(self):
        stump = AxisAlignedTreeClassifier.stump(0, 0.5, above=1)
        X = np.array([[0.5, 9.0], [0.6, -9.0], [0.4, 0.0]])
        assert stump.predict(X).tolist() == [0, 1, 0]
        flipped = AxisAlignedTreeClassifier.stump(1, 0.0, above=0)
        assert flipped.predict(X).tolist() == [0, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisAlignedTreeClassifier.stump(2, 0.0, above=1)
        with pytest.raises(ValueError):
            AxisAlignedTreeClassifier.stump(0, 0.0, above=2)


class TestRegions:
    def test_grid_centres_exact(self):
        grid = grid_centres(((0.0, 4.0), (0.0, 2.0)), resolution=2)
        assert grid.tolist() == [[1.0, 0.5], [1.0, 1.5], [3.0, 0.5], [3.0, 1.5]]

    @staticmethod
    def _band_over(*run_ids):
        return PerformanceBand(
            label="synthetic",
            run_ids=tuple(sorted(run_ids)),
            epsilon=ExactRatio(1, 1),
            policy=BandingPolicy("strict"),
        )

    def test_strip_between_stumps_counted_exactly(self):
        lo = AxisAlignedTreeClassifier.stump(0, -0.5, above=1)
        hi = AxisAlignedTreeClassifier.stump(0, 0.5, above=1)
        classifiers = {"a": lo, "b": hi}
        band = self._band_over("a", "b")
        for resolution in (8, 16, 32):
            estimate = estimate_disputable_region(band, classifiers, DEFAULT_BOX, resolution)
            xs = grid_centres(DEFAULT_BOX, resolution)[:, 0]
            strip = ((xs > -0.5) & (xs <= 0.5)).reshape(resolution, resolution)
            assert np.array_equal(estimate.mask, strip)
            assert estimate.disputable_fraction == ExactRatio(int(strip.sum()), resolution**2)

    def test_missing_classifier_detected(self):
        band = self._band_over("a", "b")
        stump = AxisAlignedTreeClassifier.stump(0, 0.0, above=1)
        with pytest.raises(AnalysisError, match="'b'"):
            estimate_disputable_region(band, {"a": stump}, DEFAULT_BOX, 8)


class TestFamilies:
    def test_linear_enumeration(self):
        data = tiny_dataset(
            [(-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 1, 1]
        )
        family = FamilySpec(kind="linear", lines=((0.0, -0.5), (0.0, 0.5)))
        runs = enumerate_family(family, data)
        assert [r.run_id for r in runs] == ["linear-000", "linear-001"]
        assert all(r.utility == ExactRatio(4, 4) for r in runs)

    def test_dedupe_keeps_first_and_preserves_ids(self):
        data = tiny_dataset([(-1.0, 0.0), (1.0, 0.0)], [0, 1])
        family = FamilySpec(
            kind="linear", lines=((0.0, 0.0), (0.0, 0.0), (0.0, 0.5))
        )
        deduped = enumerate_family(family, data)
        assert [r.run_id for r in deduped] == ["linear-000", "linear-002"]
        kept = enumerate_family(family, data, dedupe=False)
        assert [r.run_id for r in kept] == ["linear-000", "linear-001", "linear-002"]

    def test_loo_pool_size(self):
        data = tiny_dataset(
            [(-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 1, 1]
        )
        family = FamilySpec(kind="knn", k=1)
        runs = enumerate_family(family, data, dedupe=False)
        assert len(runs) == 5  # base + one per dropped point

    def test_loo_needs_enough_points(self):
        data = tiny_dataset([(-1.0, 0.0), (1.0, 0.0)], [0, 1])
        family = FamilySpec(kind="knn", k=2)
        with pytest.raises(AnalysisError):
            enumerate_family(family, data, dedupe=False)

    def test_stump_family(self):
        data = tiny_dataset(
            [(-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 1, 1]
        )
        family = FamilySpec(kind="tree", thresholds=(-0.5, 0.5, 1.5))
        runs = enumerate_family(family, data, dedupe=False)
        assert [r.run_id for r in runs] == ["tree-000", "tree-001", "tree-002"]
        # favourable strictly above each threshold, in threshold order
        assert [r.preds_validation.values.tolist() for r in runs] == [
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]
        assert [r.utility for r in runs] == [ExactRatio(4, 4), ExactRatio(4, 4), ExactRatio(3, 4)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(kind="forest")
        with pytest.raises(ValueError):
            FamilySpec(kind="linear")
        with pytest.raises(ValueError):
            FamilySpec(kind="knn", k=0)
        with pytest.raises(ValueError):
            FamilySpec(kind="tree")
        with pytest.raises(ValueError):
            FamilySpec(kind="polynomial", degree=0)


class TestScenarios:
    def test_registry_builds_everything(self):
        for name in SCENARIOS:
            scenario = build_scenario(name, seed=0)
            assert scenario.name == name
            assert len(scenario.runs) >= 2

    def test_unknown_scenario(self):
        with pytest.raises(AnalysisError, match="paired-knn"):
            build_scenario("nonexistent")

    def test_separable_linear_single_perfect_band(self):
        scenario = build_scenario("separable-linear", seed=0)
        banding = partition(scenario.runs, BandingPolicy(mode="strict"))
        assert len(banding) == 1
        assert banding.top.epsilon == ExactRatio(1, 1)
        assert banding.top.run_count == 9

    def test_polynomial_distinct_utilities(self):
        scenario = build_scenario("polynomial", seed=0)
        banding = partition(scenario.runs, BandingPolicy(mode="strict"))
        assert len(banding) >= 2
