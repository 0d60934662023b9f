"""Differential cross-checks: model vs live engines, stream minimization."""

from __future__ import annotations

import pytest

from repro.core.mesi import MesiProtocol
from repro.verification.differential import (
    StreamConfig,
    check_live,
    generate_stream,
    replay_stream_model,
    run_differential,
    shrink_stream,
)


class TestStreamGeneration:
    def test_stream_is_deterministic_per_seed(self):
        config = StreamConfig(seed=5)
        assert generate_stream(config) == generate_stream(config)

    def test_streams_differ_across_seeds(self):
        assert generate_stream(StreamConfig(seed=0)) != generate_stream(
            StreamConfig(seed=1)
        )

    def test_config_round_trips(self):
        config = StreamConfig(protocol="COUP", n_cores=3, seed=9, length=32)
        assert StreamConfig.from_jsonable(config.to_jsonable()) == config


class TestCleanRuns:
    @pytest.mark.parametrize("protocol", ["MESI", "COUP", "MEUSI", "RMO"])
    def test_all_protocols_verify(self, protocol):
        result = run_differential(StreamConfig(protocol=protocol, seed=0))
        assert result.verified, result.failure
        assert "model-correspondence" in result.checks
        assert "kernel-equivalence" in result.checks
        assert "directory-invariants" in result.checks

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_meusi_across_seeds(self, seed):
        result = run_differential(StreamConfig(protocol="MEUSI", seed=seed))
        assert result.verified, result.failure

    def test_model_only_mode(self):
        result = run_differential(StreamConfig(seed=0), live=False)
        assert result.verified
        assert result.checks == ["model-correspondence"]

    def test_live_checks_pass_standalone(self):
        config = StreamConfig(protocol="MEUSI", seed=0)
        failure, checks = check_live(config, generate_stream(config))
        assert failure is None
        assert checks == [
            "kernel-equivalence",
            "api-equivalence",
            "directory-invariants",
            "value-correspondence",
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("protocol", ["MESI", "COUP", "RMO"])
    def test_public_access_api_matches_the_retire_loop(self, protocol, seed):
        config = StreamConfig(protocol=protocol, seed=seed)
        failure, checks = check_live(config, generate_stream(config))
        assert failure is None, failure
        assert "api-equivalence" in checks

    def test_api_divergence_is_caught(self, monkeypatch):
        # One extra private probe per access.access() call: the replay's
        # L1 counters and LRU drift from the retire loop's.
        real = MesiProtocol.access

        def probing_twice(self, core_id, access, now):
            self._private_level(core_id, access.address >> self._line_shift)
            return real(self, core_id, access, now)

        monkeypatch.setattr(MesiProtocol, "access", probing_twice)
        config = StreamConfig(protocol="COUP", seed=0)
        failure, checks = check_live(config, generate_stream(config))
        assert failure is not None and failure.reason == "api-divergence"
        assert checks[-1] == "api-equivalence"


class TestMutationCatch:
    CASES = [
        ("dir.GetX.keep_sharers", 1),
        ("dir.PutU.drop_delta", 0),
        ("core.local_update_in_u.drop_ghost", 0),
    ]

    @pytest.mark.parametrize("mutation,seed", CASES)
    def test_mutation_fails_and_shrinks(self, mutation, seed):
        config = StreamConfig(protocol="MEUSI", seed=seed)
        stream = generate_stream(config)
        failure = replay_stream_model(config, stream, mutation=mutation)
        assert failure is not None, f"{mutation} not caught at seed {seed}"
        minimal, min_failure = shrink_stream(config, stream, mutation=mutation)
        assert len(minimal) <= 4, minimal  # all three shrink to 3 transactions
        assert min_failure.reason.startswith("model-")
        # The minimal stream replays to the same class of failure.
        replayed = replay_stream_model(config, minimal, mutation=mutation)
        assert replayed is not None
        assert replayed.reason == min_failure.reason

    def test_shrink_is_deterministic_and_idempotent(self):
        mutation, seed = self.CASES[0]
        config = StreamConfig(protocol="MEUSI", seed=seed)
        stream = generate_stream(config)
        first, _ = shrink_stream(config, stream, mutation=mutation)
        second, _ = shrink_stream(config, stream, mutation=mutation)
        assert first == second
        again, _ = shrink_stream(config, first, mutation=mutation)
        assert again == first

    def test_mutated_run_reports_failure_summary(self):
        result = run_differential(
            StreamConfig(protocol="MEUSI", seed=1),
            mutation="dir.GetX.keep_sharers",
        )
        assert not result.verified
        summary = result.summary()
        assert summary["verified"] is False
        assert summary["failure"] == "model-invariant"
