"""Statistical validation of uniformity and independence.

The paper's algorithms are exact by construction (Theorem 3 and the
correctness arguments of Section III); these tests provide the empirical
counterpart on inputs small enough to enumerate ``J``:

* a chi-square goodness-of-fit test of the sampled pair frequencies against
  the uniform distribution over ``J``;
* a lag-correlation check that consecutive samples are uncorrelated (a cheap
  necessary condition for independence);
* an aggregate :func:`uniformity_report` used by integration tests and the
  uniformity benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from repro.core.base import JoinSampleResult
from repro.errors import InvalidSpecError

__all__ = [
    "empirical_pair_frequencies",
    "chi_square_uniformity",
    "independence_lag_correlation",
    "UniformityReport",
    "uniformity_report",
]


def empirical_pair_frequencies(
    result: JoinSampleResult,
    join_pairs: list[tuple[int, int]],
) -> np.ndarray:
    """Observed draw counts for every pair of the enumerated join result.

    Raises when a sampled pair does not belong to ``J`` - uniformity is
    meaningless if correctness already fails.
    """
    positions = {pair: index for index, pair in enumerate(join_pairs)}
    counts = np.zeros(len(join_pairs), dtype=np.int64)
    distinct, multiplicity = np.unique(result.index_pairs(), axis=0, return_counts=True)
    for row, count in zip(distinct.tolist(), multiplicity.tolist()):
        pair = (row[0], row[1])
        if pair not in positions:
            raise InvalidSpecError(f"sampled pair {pair} is not in the enumerated join result")
        counts[positions[pair]] = count
    return counts


def chi_square_uniformity(observed_counts: np.ndarray) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform distribution.

    A large p-value (e.g. above 0.01) is consistent with uniform sampling.
    """
    observed = np.asarray(observed_counts, dtype=np.float64)
    if observed.ndim != 1 or observed.size < 2:
        raise InvalidSpecError("need at least two categories for a chi-square test")
    total = observed.sum()
    if total <= 0:
        raise InvalidSpecError("the observed counts are all zero")
    expected = np.full(observed.size, total / observed.size)
    statistic, p_value = scipy_stats.chisquare(observed, expected)
    return float(statistic), float(p_value)


def independence_lag_correlation(result: JoinSampleResult, lag: int = 1) -> float:
    """Pearson correlation between sample indices ``lag`` draws apart.

    Encodes each sampled pair as a single integer (r_index * m + s_index).
    For independent draws the correlation should be close to zero; values far
    from zero indicate the sampler's draws depend on previous draws.
    """
    if lag < 1:
        raise InvalidSpecError("lag must be at least 1")
    pairs = result.index_pairs()
    if pairs.shape[0] <= lag + 1:
        raise InvalidSpecError("not enough samples to measure a lag correlation")
    m_guess = int(pairs[:, 1].max()) + 1
    encoded = pairs[:, 0].astype(np.float64) * m_guess + pairs[:, 1]
    first = encoded[:-lag]
    second = encoded[lag:]
    if np.std(first) == 0 or np.std(second) == 0:
        return 0.0
    return float(np.corrcoef(first, second)[0, 1])


@dataclass(frozen=True, slots=True)
class UniformityReport:
    """Aggregate uniformity / independence diagnostics for one sampler run."""

    sampler_name: str
    num_samples: int
    join_size: int
    chi_square: float
    p_value: float
    lag_correlation: float
    max_absolute_deviation: float

    @property
    def looks_uniform(self) -> bool:
        """Conventional verdict: fail to reject uniformity at the 1% level."""
        return self.p_value > 0.01


def uniformity_report(
    result: JoinSampleResult,
    join_pairs: list[tuple[int, int]],
) -> UniformityReport:
    """Build a :class:`UniformityReport` from a run and the enumerated join."""
    counts = empirical_pair_frequencies(result, join_pairs)
    statistic, p_value = chi_square_uniformity(counts)
    expected = counts.sum() / counts.size
    deviation = float(np.max(np.abs(counts - expected)) / expected) if expected else 0.0
    try:
        lag_corr = independence_lag_correlation(result)
    except ValueError:
        lag_corr = 0.0
    return UniformityReport(
        sampler_name=result.sampler_name,
        num_samples=len(result.pairs),
        join_size=len(join_pairs),
        chi_square=statistic,
        p_value=p_value,
        lag_correlation=lag_corr,
        max_absolute_deviation=deviation,
    )
