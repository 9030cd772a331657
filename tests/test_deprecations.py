"""Retired spellings fail loudly instead of drifting back in.

Each finished deprecation cycle leaves one way to say a thing: a
removed keyword is a ``TypeError`` and a removed input form is rejected
with a typed error, never silently accepted.  (Tier-1 also turns every
``DeprecationWarning`` raised from ``repro`` or ``tests`` into an error,
so a warning shim cannot come back quietly either.)
"""

import warnings

import pytest

from repro.cli import main
from repro.extensions.online import run_online
from repro.pipeline import PlanCache, plan
from repro.runtime import MigrationExecutor
from repro.serve import BrokerConfig, PlanServiceError, ServerConfig, start_in_process
from repro.workloads.io import save_instance
from repro.workloads.scenarios import decommission_scenario
from tests.conftest import random_instance
from tests.serve.conftest import wire_instance


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

    def test_exact_method_is_gone(self):
        """``exact_bb`` is the one exact solver; ``"exact"`` names none."""
        with pytest.raises(ValueError, match="unknown method 'exact'"):
            plan(random_instance(4, 8, seed=1), method="exact")

    def test_cli_exact_method_is_gone(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(random_instance(4, 8, seed=1), str(path))
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(path), "--json", "--method", "exact"])
        assert exc.value.code == 2
        assert "invalid choice: 'exact'" in capsys.readouterr().err

    @pytest.mark.parametrize("kwargs", [{"parallel": True}, {"workers": 2}])
    def test_plan_pool_kwargs_are_gone(self, kwargs):
        """Components solve one after another; no pool to switch on or size."""
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            plan(random_instance(4, 8, seed=1), **kwargs)

    @pytest.mark.parametrize("name", ["GENERAL_SOLVE_RESTARTS", "derive_restart_seed"])
    def test_restart_names_are_gone(self, name):
        """A component above its bound falls back to Saia once; it is
        no longer re-solved with derived seeds."""
        with pytest.raises(ImportError, match=name):
            exec(f"from repro.pipeline import {name}", {})

    def test_broker_pool_fields_are_gone(self):
        with pytest.raises(TypeError, match="parallel"):
            BrokerConfig(parallel="auto")

    @pytest.mark.parametrize("command", ["plan", "serve"])
    @pytest.mark.parametrize("flag", [["--parallel"], ["--workers", "2"]])
    def test_cli_pool_flags_are_gone(self, tmp_path, capsys, command, flag):
        """Refused by the parser, before an instance is read or a port bound."""
        path = tmp_path / "inst.json"
        save_instance(random_instance(4, 8, seed=1), str(path))
        # An instance file is not a plan store: were the flag accepted,
        # serve would exit 2 on the store before binding a port.
        argv = {
            "plan": ["plan", str(path), "--json"],
            "serve": ["serve", "--port", "0", "--store", str(path)],
        }
        with pytest.raises(SystemExit) as exc:
            main(argv[command] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_served_exact_method_is_gone(self):
        with start_in_process(ServerConfig()) as handle:
            with pytest.raises(PlanServiceError, match="unknown method 'exact'") as err:
                handle.client().plan(wire_instance(), method="exact")
        assert err.value.code == "unknown-method"
