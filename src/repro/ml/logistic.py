"""L2-regularised binary logistic regression.

A from-scratch replacement for the paper's LIBLINEAR classifier: the same
model family (linear logit, L2 penalty, unpenalised intercept), the same
regularised maximum-likelihood objective, and — what the selectors
actually consume — the same probability ranking of nodes.

Optimisation uses scipy's L-BFGS-B with the analytic gradient; if scipy
is unavailable at runtime the fit falls back to plain full-batch gradient
descent with backtracking, which reaches ranking-equivalent solutions on
the small feature sets used here.  ``scipy.optimize`` is imported by the
first :meth:`LogisticRegression.fit`, not with this module: ``import
repro`` loads :mod:`repro.ml`, and most commands never fit a model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression:
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    l2:
        Regularisation strength λ; the objective is
        ``mean NLL + (λ / 2n) ||w||²`` (intercept unpenalised).
    class_weight:
        ``None`` for unweighted likelihood or ``"balanced"`` to reweight
        classes inversely to their frequency — useful here because the
        positive class (greedy-cover membership) is a tiny fraction of
        the nodes.
    max_iter, tol:
        Optimiser limits.

    Attributes
    ----------
    coef_:
        Learned weight vector of shape ``(d,)`` after :meth:`fit`.
    intercept_:
        Learned bias term.
    """

    def __init__(
        self,
        l2: float = 1.0,
        class_weight: Optional[str] = "balanced",
        max_iter: int = 500,
        tol: float = 1e-8,
    ) -> None:
        if l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {l2}")
        if class_weight not in (None, "balanced"):
            raise ValueError(
                f"class_weight must be None or 'balanced', got {class_weight!r}"
            )
        self.l2 = l2
        self.class_weight = class_weight
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    # ------------------------------------------------------------------
    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones_like(y, dtype=float)
        n = y.size
        n_pos = max(int(y.sum()), 1)
        n_neg = max(n - int(y.sum()), 1)
        w = np.where(y > 0.5, n / (2.0 * n_pos), n / (2.0 * n_neg))
        return w

    def _objective(self, theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                   sw: np.ndarray) -> tuple:
        n = X.shape[0]
        w, b = theta[:-1], theta[-1]
        z = X @ w + b
        # log(1 + exp(-z)) for y=1, log(1 + exp(z)) for y=0, both stable:
        nll = sw * (np.logaddexp(0.0, z) - y * z)
        p = _sigmoid(z)
        resid = sw * (p - y)
        grad_w = X.T @ resid / n + (self.l2 / n) * w
        grad_b = resid.sum() / n
        loss = nll.sum() / n + (self.l2 / (2.0 * n)) * float(w @ w)
        return loss, np.append(grad_w, grad_b)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on feature matrix ``X`` (n, d) and 0/1 labels ``y`` (n,)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("y must contain only 0/1 labels")
        sw = self._sample_weights(y)
        theta0 = np.zeros(X.shape[1] + 1)

        try:  # scipy is a hard dependency of the package, but degrade gracefully
            from scipy.optimize import minimize
        except ImportError:  # pragma: no cover - exercised only without scipy
            theta = self._gradient_descent(theta0, X, y, sw)
        else:
            res = minimize(
                self._objective,
                theta0,
                args=(X, y, sw),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.max_iter, "gtol": self.tol},
            )
            theta = res.x

        self.coef_ = theta[:-1]
        self.intercept_ = float(theta[-1])
        return self

    def _gradient_descent(
        self, theta: np.ndarray, X: np.ndarray, y: np.ndarray, sw: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - scipy fallback
        step = 1.0
        loss, grad = self._objective(theta, X, y, sw)
        for _ in range(self.max_iter):
            while step > 1e-12:
                candidate = theta - step * grad
                new_loss, new_grad = self._objective(candidate, X, y, sw)
                if new_loss <= loss - 0.5 * step * float(grad @ grad):
                    break
                step *= 0.5
            theta, loss, grad = candidate, new_loss, new_grad
            if float(np.abs(grad).max()) < self.tol:
                break
            step = min(step * 2.0, 1.0)
        return theta

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw logits ``Xw + b``."""
        self._require_fitted()
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(class = 1) per row — the ranking signal the selectors sort by."""
        return _sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)
