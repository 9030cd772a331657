"""Tests for the retry → defer → replan escalation ladder."""

import random

import pytest

from repro.runtime import EscalationAction, RetryPolicy


class TestDecide:
    def test_ladder_progression(self):
        policy = RetryPolicy(max_retries=2, max_defers=1)
        assert policy.decide(1, 0) is EscalationAction.RETRY
        assert policy.decide(2, 0) is EscalationAction.RETRY
        assert policy.decide(3, 0) is EscalationAction.DEFER
        # After the defer the executor resets attempts; with the defer
        # budget spent the next exhaustion escalates to a replan.
        assert policy.decide(3, 1) is EscalationAction.REPLAN

    def test_zero_retries_defers_immediately(self):
        policy = RetryPolicy(max_retries=0, max_defers=1)
        assert policy.decide(1, 0) is EscalationAction.DEFER
        assert policy.decide(1, 1) is EscalationAction.REPLAN

    def test_zero_budget_replans_immediately(self):
        policy = RetryPolicy(max_retries=0, max_defers=0)
        assert policy.decide(1, 0) is EscalationAction.REPLAN


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_cap=8.0, jitter=0.0
        )
        rng = random.Random(0)
        assert [policy.backoff_rounds(a, rng) for a in (1, 2, 3, 4, 5)] == [
            1, 2, 4, 8, 8  # capped at 8
        ]

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.5)
        rng = random.Random(42)
        for attempts in range(1, 20):
            rounds = policy.backoff_rounds(attempts, rng)
            # base 1.0 plus up to 0.5 jitter, ceiled: always exactly 2
            # unless the draw is 0, but never below 1 or above 2.
            assert 1 <= rounds <= 2

    def test_backoff_is_at_least_one_round(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.1, jitter=0.0)
        assert policy.backoff_rounds(1, random.Random(0)) == 1

    def test_jitter_uses_the_given_rng(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=10.0)
        a = policy.backoff_rounds(1, random.Random(5))
        b = policy.backoff_rounds(1, random.Random(5))
        c = policy.backoff_rounds(1, random.Random(6))
        assert a == b
        # Different seed gives a different draw with overwhelming odds
        # for a 10-round jitter window; pin it so the test is exact.
        assert a != c


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_defers": -1},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_cap": 0.0},
            {"jitter": -0.1},
            {"transfer_timeout": 0.0},
            {"transfer_timeout": -1.0},
            {"transfer_timeout": float("nan")},
            {"transfer_timeout": float("inf")},
            {"backoff_base": float("nan")},
            {"backoff_factor": float("inf")},
            {"backoff_cap": float("inf")},
            {"jitter": float("nan")},
            {"jitter": float("inf")},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.transfer_timeout is None
