"""The Table 2 error taxonomy.

When a BQT attempt fails, the traceback falls into one of the paper's
five categories. Table 2 gives the per-ISP breakdown; the proportions
below are those counts normalized within each ISP, and the per-attempt
error probabilities are the ISP's total error count divided by its
total attempts (collected + errored).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.stats.distributions import choice_cdf, draw_index

__all__ = [
    "ErrorCategory",
    "ERROR_MIX_BY_ISP",
    "ERROR_PROBABILITY_BY_ISP",
    "sample_error_category",
]


class ErrorCategory(enum.Enum):
    """Why a query attempt failed (Table 2 column)."""

    SELECT_DROPDOWN = "select_dropdown"      # address missing from dropdown
    ANALYZING_RESULT = "analyzing_result"    # result page unparsable / call-to-order
    EMPTY_TRACEBACK = "empty_traceback"      # silent failure (human verification)
    CLICKING_BUTTON = "clicking_button"      # UI element not clickable
    OTHER = "other"


# Table 2 counts normalized per ISP.
ERROR_MIX_BY_ISP: Mapping[str, Mapping[ErrorCategory, float]] = MappingProxyType({
    "att": MappingProxyType({
        ErrorCategory.SELECT_DROPDOWN: 43_781 / 61_768,
        ErrorCategory.ANALYZING_RESULT: 10_130 / 61_768,
        ErrorCategory.EMPTY_TRACEBACK: 7_606 / 61_768,
        ErrorCategory.OTHER: 14 / 61_768,
    }),
    "frontier": MappingProxyType({
        ErrorCategory.SELECT_DROPDOWN: 17_614 / 26_791,
        ErrorCategory.EMPTY_TRACEBACK: 6_210 / 26_791,
        ErrorCategory.CLICKING_BUTTON: 2_967 / 26_791,
    }),
    "centurylink": MappingProxyType({
        ErrorCategory.EMPTY_TRACEBACK: 1.0,   # human-verification walls
    }),
    "consolidated": MappingProxyType({
        ErrorCategory.SELECT_DROPDOWN: 15_510 / 15_551,
        ErrorCategory.ANALYZING_RESULT: 33 / 15_551,
        ErrorCategory.OTHER: 8 / 15_551,
    }),
    "xfinity": MappingProxyType({
        ErrorCategory.SELECT_DROPDOWN: 0.85,
        ErrorCategory.OTHER: 0.15,
    }),
    "spectrum": MappingProxyType({
        ErrorCategory.SELECT_DROPDOWN: 0.85,
        ErrorCategory.OTHER: 0.15,
    }),
})

# Per-attempt error probability: Table 2 errors / (Table 3 collected +
# Table 2 errors). Consolidated's dropdown was by far the flakiest.
ERROR_PROBABILITY_BY_ISP: Mapping[str, float] = MappingProxyType({
    "att": 61_768 / (233_247 + 61_768),
    "frontier": 26_791 / (169_766 + 26_791),
    "centurylink": 6_939 / (111_841 + 6_939),
    "consolidated": 15_551 / (22_806 + 15_551),
    "xfinity": 0.04,
    "spectrum": 0.04,
})


def sample_error_category(
    isp_id: str,
    rng: np.random.Generator,
    exclude: tuple[ErrorCategory, ...] = (),
) -> ErrorCategory:
    """Draw an error category from the ISP's Table 2 mix.

    ``exclude`` removes categories attributed elsewhere (dropdown
    misses and call-to-order pages carry their own categories), with
    the remaining weights renormalized; falls back to ``OTHER`` when
    the exclusion empties the mix.
    """
    categories, cdf = _error_cdf(isp_id, exclude)
    if not categories:
        return ErrorCategory.OTHER
    return categories[draw_index(cdf, rng)]


@lru_cache(maxsize=None)
def _error_cdf(
    isp_id: str, exclude: tuple[ErrorCategory, ...],
) -> tuple[list[ErrorCategory], list[float]]:
    mix = ERROR_MIX_BY_ISP.get(isp_id)
    if mix is None:
        raise KeyError(f"no error mix for ISP {isp_id!r}")
    categories = [c for c in mix if c not in exclude]
    if not categories:
        return [], []
    weights = np.asarray([mix[c] for c in categories], dtype=float)
    return categories, choice_cdf(weights / weights.sum())
