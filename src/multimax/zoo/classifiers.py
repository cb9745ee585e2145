"""Small from-scratch classifiers over 2-D points.

Each classifier exposes fit / predict (decision_function too
where a margin exists).  predict takes an (n, 2) array and returns uint8 0/1
with 1 the favourable class.  Determinism is part of the contract: stable
tie-breaking everywhere, explicit seeds wherever randomness is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def line_params(a: float, b: float, c: float) -> tuple[float, float]:
    """Normalise the halfplane a*x + b*y + c > 0 to (angle, offset) form."""
    norm = math.hypot(a, b)
    if norm == 0:
        raise ValueError("not a line: a and b are both zero")
    return math.atan2(b, a), -c / norm


class HalfplaneClassifier:
    """Favourable on the positive side of a directed line.

    The boundary is cos(angle)*x + sin(angle)*y = offset; points strictly
    beyond it (in the direction the angle points) are favourable.
    """

    def __init__(self, angle: float, offset: float):
        self.angle = float(angle)
        self.offset = float(offset)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return X[:, 0] * math.cos(self.angle) + X[:, 1] * math.sin(self.angle) - self.offset

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(np.uint8)

    @classmethod
    def from_line(cls, a: float, b: float, c: float) -> "HalfplaneClassifier":
        angle, offset = line_params(a, b, c)
        return cls(angle=angle, offset=offset)


class PolynomialBoundaryClassifier:
    """Sign of a bivariate polynomial, least-squares fitted to +-1 targets.

    Monomials are ordered by total degree then descending x power, so
    coefficient vectors are comparable across instances of the same degree.
    """

    def __init__(self, degree: int = 1, coefficients: tuple[float, ...] | None = None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = int(degree)
        self.coefficients = None if coefficients is None else tuple(float(c) for c in coefficients)
        if self.coefficients is not None and len(self.coefficients) != len(self._exponents()):
            raise ValueError(
                f"degree {degree} needs {len(self._exponents())} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def _exponents(self) -> list[tuple[int, int]]:
        return [(i, total - i) for total in range(self.degree + 1) for i in range(total, -1, -1)]

    def _design(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        cols = [X[:, 0] ** i * X[:, 1] ** j for i, j in self._exponents()]
        return np.column_stack(cols)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PolynomialBoundaryClassifier":
        targets = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
        coeffs, *_ = np.linalg.lstsq(self._design(X), targets, rcond=None)
        self.coefficients = tuple(float(c) for c in coeffs)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coefficients is None:
            raise RuntimeError("classifier is not fitted")
        return self._design(X) @ np.array(self.coefficients)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(np.uint8)

    def perturbed(self, rng: np.random.Generator, scale: float) -> "PolynomialBoundaryClassifier":
        """A copy with gaussian noise of the given scale on every coefficient."""
        if self.coefficients is None:
            raise RuntimeError("classifier is not fitted")
        noise = rng.normal(0.0, scale, size=len(self.coefficients))
        return PolynomialBoundaryClassifier(
            degree=self.degree,
            coefficients=tuple(c + float(n) for c, n in zip(self.coefficients, noise)),
        )


class NearestNeighborsClassifier:
    """k nearest neighbours by euclidean distance, majority vote.

    Distance ties resolve towards the lower training row (stable argsort);
    vote ties go to the favourable class.  Distances are computed in chunks
    so large query grids stay within memory.
    """

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self._train_X: np.ndarray | None = None
        self._train_y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NearestNeighborsClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.uint8)
        if len(X) != len(y):
            raise ValueError("X and y lengths differ")
        if len(X) < self.k:
            raise ValueError(f"k={self.k} exceeds the {len(X)} training points")
        self._train_X = X.copy()
        self._train_y = y.copy()
        return self

    @property
    def train_size(self) -> int:
        if self._train_X is None:
            raise RuntimeError("classifier is not fitted")
        return len(self._train_X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._train_X is None or self._train_y is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        chunk = max(1, min(8192, 4_000_000 // max(1, len(self._train_X))))
        out = np.empty(len(X), dtype=np.uint8)
        for start in range(0, len(X), chunk):
            block = X[start : start + chunk]
            d2 = ((block[:, None, :] - self._train_X[None, :, :]) ** 2).sum(axis=2)
            order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            votes = self._train_y[order].sum(axis=1)
            out[start : start + len(block)] = (2 * votes >= self.k).astype(np.uint8)
        return out

    def without_point(self, row: int) -> "NearestNeighborsClassifier":
        """A copy fitted on the training set minus one row."""
        if self._train_X is None or self._train_y is None:
            raise RuntimeError("classifier is not fitted")
        if not 0 <= row < len(self._train_X):
            raise ValueError(f"row {row} out of range")
        keep = np.arange(len(self._train_X)) != row
        return NearestNeighborsClassifier(k=self.k).fit(self._train_X[keep], self._train_y[keep])


@dataclass
class _Node:
    prediction: int | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None  # value <= threshold
    right: "_Node | None" = None  # value > threshold


def _gini_weighted(y_left: np.ndarray, y_right: np.ndarray) -> Fraction:
    """Weighted gini impurity of a split, exact."""
    total = len(y_left) + len(y_right)
    acc = Fraction(0)
    for side in (y_left, y_right):
        n = len(side)
        if n == 0:
            continue
        pos = int(side.sum())
        impurity = 1 - Fraction(pos, n) ** 2 - Fraction(n - pos, n) ** 2
        acc += Fraction(n, total) * impurity
    return acc


class AxisAlignedTreeClassifier:
    """Greedy binary tree on axis-aligned thresholds with exact gini.

    Candidate splits are midpoints between consecutive distinct feature
    values; impurities compare as exact fractions so a tie is a real tie, and
    tied candidates are chosen by a seeded shuffle.  Different seeds can thus
    yield different but equally good trees, which is exactly the multiplicity
    the zoo wants to exhibit.
    """

    def __init__(self, max_depth: int = 1, seed: int = 0):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self.seed = int(seed)
        self._root: _Node | None = None

    @classmethod
    def stump(cls, feature: int, threshold: float, above: int) -> "AxisAlignedTreeClassifier":
        """A fixed depth-1 tree predicting `above` when value > threshold."""
        if feature not in (0, 1):
            raise ValueError("feature must be 0 or 1")
        if above not in (0, 1):
            raise ValueError("above must be 0 or 1")
        tree = cls(max_depth=1)
        tree._root = _Node(
            feature=feature,
            threshold=float(threshold),
            left=_Node(prediction=1 - above),
            right=_Node(prediction=above),
        )
        return tree

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AxisAlignedTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.uint8)
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and the same length")
        rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, y, depth=0, rng=rng)
        return self

    def _leaf(self, y: np.ndarray) -> _Node:
        pos = int(y.sum())
        return _Node(prediction=1 if 2 * pos >= len(y) else 0)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        if depth >= self.max_depth or len(set(y.tolist())) == 1:
            return self._leaf(y)
        candidates = []
        for feature in (0, 1):
            values = np.unique(X[:, feature])
            for lo, hi in zip(values, values[1:]):
                candidates.append((feature, float((lo + hi) / 2)))
        if not candidates:
            return self._leaf(y)
        order = rng.permutation(len(candidates))
        parent = _gini_weighted(y, np.empty(0, dtype=np.uint8))
        best: tuple[Fraction, int, float] | None = None
        for idx in order:
            feature, threshold = candidates[idx]
            mask = X[:, feature] <= threshold
            score = _gini_weighted(y[mask], y[~mask])
            if best is None or score < best[0]:
                best = (score, feature, threshold)
        assert best is not None
        if best[0] >= parent:
            return self._leaf(y)
        _, feature, threshold = best
        mask = X[:, feature] <= threshold
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self._grow(X[mask], y[mask], depth + 1, rng),
            right=self._grow(X[~mask], y[~mask], depth + 1, rng),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.uint8)

        def walk(node: _Node, rows: np.ndarray) -> None:
            if node.prediction is not None:
                out[rows] = node.prediction
                return
            assert node.feature is not None and node.threshold is not None
            side = X[rows, node.feature] <= node.threshold
            assert node.left is not None and node.right is not None
            walk(node.left, rows[side])
            walk(node.right, rows[~side])

        walk(self._root, np.arange(len(X)))
        return out

    @property
    def depth(self) -> int:
        if self._root is None:
            raise RuntimeError("classifier is not fitted")

        def measure(node: _Node) -> int:
            if node.prediction is not None:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._root)
