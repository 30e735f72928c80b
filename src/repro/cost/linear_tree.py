"""A small linear-tree regressor (decision tree with linear leaf models).

The paper fits a *linear tree* model per operator type to predict per-core
execution time from tile shapes (§4.3, Fig. 12), citing the ``linear-tree``
package.  That package is not available offline, so this module implements the
same idea from scratch on top of numpy: a binary regression tree whose splits
minimize the summed squared error of ordinary-least-squares linear models fit
in each child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CostModelError


@dataclass
class _Node:
    """One tree node: either a split or a linear leaf."""

    coef: np.ndarray | None = None
    intercept: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _fit_linear(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares fit; returns (coef, intercept, sse)."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    coef, intercept = solution[:-1], float(solution[-1])
    residual = y - (x @ coef + intercept)
    return coef, intercept, float(np.dot(residual, residual))


class LinearTreeRegressor:
    """Regression tree with ordinary-least-squares linear models in the leaves.

    Args:
        max_depth: Maximum tree depth (0 = a single global linear model).
        min_samples_leaf: Minimum samples required in each child of a split.
        num_thresholds: Candidate thresholds examined per feature per split.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 8,
        num_thresholds: int = 8,
    ) -> None:
        if max_depth < 0:
            raise CostModelError("max_depth must be >= 0")
        self.max_depth = max_depth
        self.min_samples_leaf = max(2, min_samples_leaf)
        self.num_thresholds = max(1, num_thresholds)
        self._root: _Node | None = None
        self._num_features = 0

    # ------------------------------------------------------------------ fitting
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LinearTreeRegressor":
        """Fit the tree to ``features`` (n×d) and ``targets`` (n,)."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise CostModelError(
                f"expected features (n, d) and targets (n,), got {x.shape} / {y.shape}"
            )
        if x.shape[0] < 2:
            raise CostModelError("need at least two samples to fit")
        self._num_features = x.shape[1]
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        coef, intercept, sse = _fit_linear(x, y)
        node = _Node(coef=coef, intercept=intercept)
        if depth >= self.max_depth or x.shape[0] < 2 * self.min_samples_leaf:
            return node

        best = None  # (sse, feature, threshold, mask)
        for feature in range(x.shape[1]):
            values = np.unique(x[:, feature])
            if values.size < 2:
                continue
            quantiles = np.linspace(0.0, 1.0, self.num_thresholds + 2)[1:-1]
            thresholds = np.unique(np.quantile(values, quantiles))
            for threshold in thresholds:
                mask = x[:, feature] <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_samples_leaf or (x.shape[0] - n_left) < self.min_samples_leaf:
                    continue
                _, _, sse_left = _fit_linear(x[mask], y[mask])
                _, _, sse_right = _fit_linear(x[~mask], y[~mask])
                total = sse_left + sse_right
                if best is None or total < best[0]:
                    best = (total, feature, float(threshold), mask)

        if best is None or best[0] >= sse * 0.999:
            return node
        _, feature, threshold, mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    # --------------------------------------------------------------- prediction
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n×d or a single d-vector)."""
        if self._root is None:
            raise CostModelError("model is not fitted")
        x = np.asarray(features, dtype=float)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        if x.shape[1] != self._num_features:
            raise CostModelError(
                f"expected {self._num_features} features, got {x.shape[1]}"
            )
        out = np.array([self._predict_row(row) for row in x])
        return out[0] if single else out

    def _predict_row(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return float(row @ node.coef + node.intercept)

    # ------------------------------------------------------------------ metrics
    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination (R²) on the given data."""
        y = np.asarray(targets, dtype=float)
        predictions = self.predict(features)
        ss_res = float(np.sum((y - predictions) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._root is None:
            return 0

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
