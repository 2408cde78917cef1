"""Tests for repro.service.api: query normalization and canonical responses.

The load-bearing contract is *normalization equivalence*: every way a client
can spell the same measurement — shuffled key order, integers as strings, a
default-valued or explicitly empty ``protocol_params`` — must normalize to
one :class:`~repro.sweeps.spec.SweepConfig` content hash and therefore one
store record.  A literal hash is pinned the same way the sweep-spec suite
pins one, so an accidental change to the canonical form fails loudly.
"""

from __future__ import annotations

import pytest

from repro.service.api import (
    RESPONSE_SCHEMA,
    QueryError,
    normalize_query,
    parse_response,
    render_response,
)
from repro.service.cells import experiment_queries
from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig

#: One fully spelled query and the hash its canonical form is pinned to.
QUERY = {
    "protocol": "round-robin",
    "n": 32,
    "k": 4,
    "workload": "uniform",
    "batch": 8,
    "seed": 0,
    "max_slots": 10_000,
}
PINNED_HASH = "2d58865d4a8e4a0b"


class TestNormalizationEquivalence:
    def test_pinned_literal_hash(self):
        # Guards the service's half of the store contract: if this moves,
        # every deployed store and warm cache silently goes cold.
        assert normalize_query(QUERY).config_hash() == PINNED_HASH

    def test_matches_the_direct_sweep_config(self):
        config = SweepConfig(
            protocol="round-robin", n=32, k=4, batch=8, max_slots=10_000
        )
        assert normalize_query(QUERY) == config

    def test_key_order_is_irrelevant(self):
        shuffled = dict(reversed(list(QUERY.items())))
        assert list(shuffled) != list(QUERY)
        assert normalize_query(shuffled).config_hash() == PINNED_HASH

    def test_string_integers_coerce(self):
        stringly = {**QUERY, "n": "32", "k": "4", "batch": "8", "seed": "0"}
        assert normalize_query(stringly).config_hash() == PINNED_HASH

    def test_defaults_match_explicit_values(self):
        minimal = {
            "protocol": "round-robin",
            "n": 32,
            "k": 4,
            "batch": 8,
            "max_slots": 10_000,
        }
        assert normalize_query(minimal).config_hash() == PINNED_HASH

    def test_empty_protocol_params_is_the_default(self):
        explicit = {**QUERY, "protocol_params": {}, "params": {}}
        assert normalize_query(explicit).config_hash() == PINNED_HASH

    def test_protocol_params_change_the_hash(self):
        tuned = {**QUERY, "protocol_params": {"c": 3}}
        assert normalize_query(tuned).config_hash() != PINNED_HASH


class TestNormalizationRejection:
    def test_non_mapping_query(self):
        with pytest.raises(QueryError, match="JSON object"):
            normalize_query([("protocol", "round-robin")])

    def test_unknown_field_is_a_typo_not_a_default(self):
        with pytest.raises(QueryError, match="unknown query field"):
            normalize_query({**QUERY, "workers": 4})

    @pytest.mark.parametrize("missing", ["protocol", "n", "k"])
    def test_required_fields(self, missing):
        query = {k: v for k, v in QUERY.items() if k != missing}
        with pytest.raises(QueryError, match=missing):
            normalize_query(query)

    def test_unknown_protocol_names_the_valid_ones(self):
        with pytest.raises(QueryError, match="round-robin"):
            normalize_query({**QUERY, "protocol": "nope"})

    def test_unknown_workload(self):
        with pytest.raises(QueryError, match="unknown workload"):
            normalize_query({**QUERY, "workload": "nope"})

    @pytest.mark.parametrize("bad", [True, 4.5, None, [32]])
    def test_non_integer_n(self, bad):
        with pytest.raises(QueryError, match="integer"):
            normalize_query({**QUERY, "n": bad})

    def test_non_numeric_string_n(self):
        with pytest.raises(QueryError, match="not an integer"):
            normalize_query({**QUERY, "n": "lots"})

    def test_non_mapping_protocol_params(self):
        with pytest.raises(QueryError, match="mapping"):
            normalize_query({**QUERY, "protocol_params": [1, 2]})

    def test_invalid_combination_k_above_n(self):
        with pytest.raises(QueryError, match="invalid query"):
            normalize_query({**QUERY, "k": 64})


class TestResponseRoundTrip:
    def test_render_parse_round_trip(self):
        record = resolve_config(normalize_query(QUERY))
        payload = parse_response(render_response(record))
        assert payload["schema"] == RESPONSE_SCHEMA
        assert payload["hash"] == PINNED_HASH
        assert payload["record"] == record.as_dict()

    def test_rendering_is_deterministic(self):
        config = normalize_query(QUERY)
        assert render_response(resolve_config(config)) == render_response(
            resolve_config(config)
        )

    def test_unsupported_schema_is_rejected(self):
        with pytest.raises(QueryError, match="schema"):
            parse_response('{"schema": 99, "hash": "x", "record": {}}')

    def test_non_json_is_rejected(self):
        with pytest.raises(QueryError, match="not valid JSON"):
            parse_response("{torn")

    def test_missing_fields_are_rejected(self):
        with pytest.raises(QueryError, match="hash/record"):
            parse_response('{"schema": 1}')


class TestExperimentQueries:
    def test_campaign_cells_are_queryable_configs(self):
        configs = experiment_queries("E4")
        assert configs and all(isinstance(c, SweepConfig) for c in configs)
        hashes = [c.config_hash() for c in configs]
        assert len(set(hashes)) == len(hashes)

    def test_lowercase_id_and_limit(self):
        assert experiment_queries("e4", limit=2) == experiment_queries("E4")[:2]

    def test_unknown_experiment(self):
        with pytest.raises(QueryError, match="unknown experiment"):
            experiment_queries("E99")

    def test_render_only_experiment_is_refused(self):
        with pytest.raises(QueryError, match="render-only"):
            experiment_queries("E7")

    def test_limit_must_be_positive(self):
        with pytest.raises(QueryError, match="limit"):
            experiment_queries("E4", limit=0)
