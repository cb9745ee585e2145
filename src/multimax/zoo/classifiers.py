"""Small from-scratch classifiers over 2-D points.

Each classifier exposes predict (and fit where it learns from data).
predict takes an (n, 2) array and returns uint8 0/1 with 1 the favourable
class.  Determinism is part of the contract: stable tie-breaking everywhere,
explicit seeds wherever randomness is involved.
"""

from __future__ import annotations

import math

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

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = X[:, 0] * math.cos(self.angle) + X[:, 1] * math.sin(self.angle) - self.offset
        return (margin > 0).astype(np.uint8)


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

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coefficients is None:
            raise RuntimeError("classifier is not fitted")
        return (self._design(X) @ np.array(self.coefficients) > 0).astype(np.uint8)

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


class AxisAlignedTreeClassifier:
    """A fixed depth-1 split on one feature: a decision stump.

    Predicts `above` where the feature value exceeds the threshold and
    1 - above elsewhere, the threshold itself included.
    """

    def __init__(self, feature: int, threshold: float, above: int):
        if feature not in (0, 1):
            raise ValueError("feature must be 0 or 1")
        if above not in (0, 1):
            raise ValueError("above must be 0 or 1")
        self.feature = feature
        self.threshold = float(threshold)
        self.above = above

    @classmethod
    def stump(cls, feature: int, threshold: float, above: int) -> "AxisAlignedTreeClassifier":
        """The stump predicting `above` when value > threshold."""
        return cls(feature, threshold, above)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        below = X[:, self.feature] <= self.threshold
        return np.where(below, 1 - self.above, self.above).astype(np.uint8)
