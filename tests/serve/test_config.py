"""Validation of the serving configuration.

A config that cannot mean what it says (a negative bound, a store path
with the store off) is refused at construction with a clear error
instead of silently misbehaving at serve time.  Pool, cache and store
tuning that no caller sets (batching, quantisation bits, start method,
per-stream backpressure) is not a serving knob: those components keep
their own defaults and validate their own arguments.
"""

import dataclasses

import pytest

from repro.errors import PipelineError
from repro.serve import ServingConfig


class TestServingConfigCombinations:
    def test_valid_combinations_construct(self):
        # The combinations real call sites use must keep working.
        ServingConfig()
        ServingConfig(workers=0)
        ServingConfig(workers=0, cache=False)
        ServingConfig(workers=2, store=True, store_check_every=4)

    def test_individual_bounds_still_enforced(self):
        with pytest.raises(PipelineError):
            ServingConfig(workers=-1)
        with pytest.raises(PipelineError):
            ServingConfig(cache_capacity=0)
        with pytest.raises(PipelineError):
            ServingConfig(job_timeout=0.0)
        with pytest.raises(PipelineError, match="store_path"):
            ServingConfig(store_path="avatars.npz")

    def test_component_tuning_is_not_a_serving_knob(self):
        assert len(dataclasses.fields(ServingConfig)) == 10
        for knob in ("coalesce", "coalesce_window", "max_batch",
                     "start_method", "max_inflight_per_stream",
                     "cache_bits", "store_bits"):
            with pytest.raises(TypeError):
                ServingConfig(**{knob: None})
