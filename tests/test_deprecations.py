"""Retired spellings fail loudly instead of drifting back in.

Each finished deprecation cycle leaves one way to say a thing: a
removed keyword is a ``TypeError`` and a removed input form is rejected
with a typed error, never silently accepted.  (Tier-1 also turns every
``DeprecationWarning`` raised from ``repro`` or ``tests`` into an error,
so a warning shim cannot come back quietly either.)
"""

import warnings

import pytest

from repro.extensions.online import run_online
from repro.pipeline import PlanCache, plan
from repro.runtime import MigrationExecutor
from repro.workloads.scenarios import decommission_scenario


def scenario_executor(**kwargs):
    scenario = decommission_scenario(seed=1)
    schedule = plan(scenario.instance).schedule
    return MigrationExecutor(
        scenario.cluster, scenario.context, schedule, **kwargs
    )


class TestExecutorCacheKwarg:
    def test_plan_cache_kwarg_is_gone(self):
        """The deprecation cycle ended: plan_cache= is now a TypeError."""
        with pytest.raises(TypeError, match="plan_cache"):
            scenario_executor(plan_cache=PlanCache())

    def test_from_state_plan_cache_kwarg_is_gone(self):
        executor = scenario_executor(cache=PlanCache())
        state = executor.get_state()
        scenario = decommission_scenario(seed=1)
        with pytest.raises(TypeError, match="plan_cache"):
            MigrationExecutor.from_state(
                scenario.cluster, state, plan_cache=PlanCache()
            )

    def test_canonical_cache_kwarg_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor = scenario_executor(cache=PlanCache())
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert executor.plan_cache is not None


class TestRetiredSpellings:
    def test_executor_event_trace_kwarg_is_gone(self):
        """Runtime traces are obs spans only: pass ``tracer=``."""
        with pytest.raises(TypeError, match="trace"):
            scenario_executor(trace=object())

    def test_from_state_event_trace_kwarg_is_gone(self):
        state = scenario_executor().get_state()
        scenario = decommission_scenario(seed=1)
        with pytest.raises(TypeError, match="trace"):
            MigrationExecutor.from_state(scenario.cluster, state, trace=object())

    def test_online_mapping_of_moves_is_rejected(self):
        """A round -> batch-of-moves mapping is not a delta stream."""
        with pytest.raises(TypeError, match="InstanceDelta"):
            run_online({0: [("a", "b")]}, {"a": 1, "b": 1})
