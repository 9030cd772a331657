"""The CLI's ``--method`` surface: ``repro-migrate schedule`` ≡ ``repro.plan``.

The ``--method`` choices come from the solver registry — ``auto``
first, then :func:`~repro.pipeline.registry.solver_names` in
registration order — so every registered solver stays reachable from
the command line.  For each choice the ``schedule`` subcommand must
print exactly the pipeline's schedule for the same input, and print it
the same way every time, so scripts driving the CLI see the rounds
library callers get.
"""

import pytest

from repro import MigrationInstance, plan
from repro.cli import main
from repro.pipeline.registry import solver_names
from repro.workloads.io import load_instance, save_instance

from tests.conftest import even_instance, random_instance

METHOD_CHOICES = ("auto",) + solver_names()


def instance_for(method: str) -> MigrationInstance:
    """An instance on which ``method`` is applicable."""
    if method == "even_optimal":
        return even_instance(8, 24, seed=1)
    if method == "bipartite_optimal":
        return MigrationInstance.from_moves(
            [("old0", "new0"), ("old0", "new1"), ("old1", "new0"),
             ("old1", "new1"), ("old0", "new0")],
            {"old0": 1, "old1": 2, "new0": 3, "new1": 1},
        )
    if method in ("exact", "exact_bb"):
        return random_instance(5, 8, seed=2)  # exact search needs few items
    if method == "even_rounding":
        return random_instance(9, 30, capacity_choices=(2, 3, 4), seed=3)
    return random_instance(9, 30, seed=3)


def run_schedule(capsys, path, method):
    assert main(["schedule", str(path), "--json", "--method", method]) == 0
    return capsys.readouterr().out


@pytest.fixture
def saved(tmp_path):
    def save(method):
        path = tmp_path / f"{method}.json"
        save_instance(instance_for(method), str(path))
        return path

    return save


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_wrapper_is_byte_identical_to_pipeline(method, saved, capsys):
    path = saved(method)
    inst = load_instance(str(path))
    schedule = plan(inst, method=method).schedule
    schedule.validate(inst)
    expected = [f"# method={schedule.method} rounds={schedule.num_rounds}"]
    for i, rnd in enumerate(schedule.rounds):
        moves = ", ".join(
            "->".join(map(str, inst.graph.endpoints(eid))) for eid in sorted(rnd)
        )
        expected.append(f"round {i}: {moves}")
    assert run_schedule(capsys, path, method) == "\n".join(expected) + "\n"


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_wrapper_is_deterministic(method, saved, capsys):
    path = saved(method)
    assert run_schedule(capsys, path, method) == run_schedule(capsys, path, method)


def test_methods_tuple_still_starts_with_auto(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(METHOD_CHOICES) + "}" in capsys.readouterr().out


def test_wrapper_unknown_method_message(saved, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", str(saved("general")), "--json", "--method", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
