"""Core algorithms: the spatial range join, its baselines and the proposed sampler.

This package contains the paper's primary contribution and everything needed
to evaluate it:

* :class:`~repro.core.config.JoinSpec` - a spatial range join instance
  (``R``, ``S`` and the window half-extent ``l``).
* :class:`~repro.core.base.JoinSampler` - the common sampler interface with
  phase-decomposed timings (:class:`~repro.core.base.PhaseTimings`) and
  results (:class:`~repro.core.base.JoinSampleResult`).
* :mod:`~repro.core.full_join` - the exact spatial range join (ground truth)
  and join-size counting.
* :class:`~repro.core.join_then_sample.JoinThenSample` - the naive
  "materialise then sample" algorithm.
* :class:`~repro.core.kds_sampler.KDSSampler` - baseline 1 (Section III-A).
* :class:`~repro.core.kds_rejection.KDSRejectionSampler` - baseline 2
  (Section III-B).
* :class:`~repro.core.bbst_sampler.BBSTSampler` - the proposed algorithm
  (Section IV).
* :class:`~repro.core.cell_kdtree_sampler.CellKDTreeSampler` - the Fig. 9
  ablation that swaps each cell's BBSTs for a kd-tree.
* :mod:`~repro.core.estimation` - join-size estimation and selectivity
  statistics derived from the samplers' upper bounds.
* :mod:`~repro.core.validation` - sample validation helpers.
"""

from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    PhaseTimings,
    SamplePair,
    SamplePairs,
    resolve_rng,
)
from repro.core.bbst_sampler import BBSTSampler
from repro.core.cell_kdtree_sampler import CellKDTreeSampler
from repro.core.config import JoinSpec
from repro.core.estimation import (
    estimate_join_size_from_upper_bounds,
    exact_join_size,
    join_selectivity,
    upper_bound_ratio,
)
from repro.core.full_join import (
    brute_force_join,
    join_size,
    spatial_range_join,
    spatial_range_join_array,
)
from repro.core.join_then_sample import JoinThenSample
from repro.core.kds_rejection import KDSRejectionSampler
from repro.core.kds_sampler import KDSSampler
from repro.core.registry import (
    SamplerEntry,
    create_sampler,
    get_sampler,
    register_sampler,
    sampler_entries,
    sampler_names,
    unregister_sampler,
)
from repro.core.validation import (
    validate_half_extent,
    validate_jobs,
    validate_sample_result,
    verify_pairs_in_join,
)

__all__ = [
    "JoinSpec",
    "JoinSampler",
    "JoinSampleResult",
    "PhaseTimings",
    "SamplePair",
    "SamplePairs",
    "spatial_range_join",
    "spatial_range_join_array",
    "brute_force_join",
    "join_size",
    "JoinThenSample",
    "KDSSampler",
    "KDSRejectionSampler",
    "BBSTSampler",
    "CellKDTreeSampler",
    "exact_join_size",
    "estimate_join_size_from_upper_bounds",
    "join_selectivity",
    "upper_bound_ratio",
    "validate_half_extent",
    "validate_jobs",
    "validate_sample_result",
    "verify_pairs_in_join",
    "resolve_rng",
    # sampler registry
    "SamplerEntry",
    "register_sampler",
    "unregister_sampler",
    "get_sampler",
    "create_sampler",
    "sampler_names",
    "sampler_entries",
]
