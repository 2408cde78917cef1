"""Tests for the named protocol registry in :mod:`repro.sweeps.protocols`."""

from __future__ import annotations

import pytest

import repro.sweeps.protocols as protocols_module
from repro.channel.protocols import FeedbackVectorizedPolicy, RandomizedPolicy
from repro.core.round_robin import RoundRobin
from repro.experiments.cache import shared_cache
from repro.sweeps.protocols import (
    PROTOCOL_BUILDERS,
    build_protocol,
    protocol_names,
    register_protocol,
)


@pytest.fixture
def registry(monkeypatch):
    """A private copy of the registry, so registrations do not leak."""
    copy = dict(PROTOCOL_BUILDERS)
    monkeypatch.setattr(protocols_module, "PROTOCOL_BUILDERS", copy)
    return copy


class TestRegisterProtocol:
    def test_refuses_an_existing_name(self, registry):
        builtin = registry["round-robin"]
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("round-robin", lambda n, k, seed, cache: RoundRobin(n))
        assert registry["round-robin"] is builtin

    def test_registered_builder_gets_n_k_seed_and_the_shared_cache(self, registry):
        calls = []

        def builder(n, k, seed, cache):
            calls.append((n, k, seed, cache))
            return RoundRobin(n)

        register_protocol("my-round-robin", builder)
        assert "my-round-robin" in protocol_names()
        protocol = build_protocol("my-round-robin", 16, 4, seed=3)
        assert isinstance(protocol, RoundRobin) and protocol.n == 16
        assert calls == [(16, 4, 3, shared_cache)]
        assert "my-round-robin" not in PROTOCOL_BUILDERS

    def test_params_reach_the_builder_and_unknown_ones_raise(self, registry):
        register_protocol("sized", lambda n, k, seed, cache, *, size=1: RoundRobin(n * size))
        assert build_protocol("sized", 8, size=2).n == 16
        with pytest.raises(TypeError):
            build_protocol("sized", 8, colour="red")


class TestBuildProtocol:
    def test_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(KeyError, match="round-robin"):
            build_protocol("no-such-protocol", 8)


class TestRandomizedContract:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_BUILDERS))
    def test_no_registered_policy_derives_its_matrix_pair_by_pair(self, name):
        # Every registered randomized policy runs a vectorized engine: either
        # the feedback engine, or the matrix scan over a native matrix rather
        # than the generic per-pair derivation from transmit_probability.
        protocol = build_protocol(name, 16, 4, seed=0)
        if not isinstance(protocol, RandomizedPolicy):
            return
        assert isinstance(protocol, FeedbackVectorizedPolicy) or (
            type(protocol).transmit_probability_matrix
            is not RandomizedPolicy.transmit_probability_matrix
        )

    def test_the_randomized_baselines_are_covered(self):
        randomized = {
            name
            for name in PROTOCOL_BUILDERS
            if isinstance(build_protocol(name, 16, 4, seed=0), RandomizedPolicy)
        }
        assert {"rpd", "rpd-known-k", "aloha", "decay", "beb", "tree-splitting"} <= randomized
