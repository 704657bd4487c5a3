"""Correlation helpers for the population-density analysis.

Section 4.1 of the paper reports "a strong correlation" between AT&T
serviceability rates and population density across CBGs (Figure 3), and
explicitly notes the exception (Mississippi). These wrappers return the
coefficient together with the p-value and sample size so the experiment
harness can report significance the way the paper discusses it.

``scipy.stats`` is imported on first use, not with the module: it is
the package's heaviest import, and nothing but these two functions
needs it, so ``import repro`` stays light and works without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CorrelationResult", "pearson", "spearman"]


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation coefficient with its context."""

    method: str
    coefficient: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """True when the correlation is significant at the 5% level."""
        return self.p_value < 0.05

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        strength = "strong" if abs(self.coefficient) >= 0.5 else (
            "moderate" if abs(self.coefficient) >= 0.3 else "weak")
        direction = "positive" if self.coefficient >= 0 else "negative"
        marker = "significant" if self.significant else "not significant"
        return (f"{self.method} r={self.coefficient:+.3f} (n={self.n}, "
                f"p={self.p_value:.2g}): {strength} {direction}, {marker}")


def _validate(xs: Sequence[float], ys: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"samples must align: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise ValueError("need at least 3 points for a correlation")
    return x, y


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson product-moment correlation."""
    from scipy import stats

    x, y = _validate(xs, ys)
    result = stats.pearsonr(x, y)
    return CorrelationResult("pearson", float(result.statistic),
                             float(result.pvalue), x.size)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation (robust to the heavy density skew)."""
    from scipy import stats

    x, y = _validate(xs, ys)
    result = stats.spearmanr(x, y)
    return CorrelationResult("spearman", float(result.statistic),
                             float(result.pvalue), x.size)
