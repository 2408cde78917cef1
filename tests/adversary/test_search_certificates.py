"""Tests for replayable search certificates (repro.adversary.certificates)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.adversary import (
    CERTIFICATE_SCHEMA,
    CertificateSchemaError,
    SearchCertificate,
    SearchSpec,
    adversarial_search,
    evaluation_generator,
    load_certificate,
    read_certificates,
    replay_certificate,
    write_certificate,
)


def _search(protocol: str = "scenario-b", **overrides) -> SearchCertificate:
    base = dict(
        protocol=protocol,
        n=32,
        k=4,
        strategy="evolution",
        budget=48,
        population=16,
        seed=11,
        window=64,
        max_slots=20_000,
    )
    base.update(overrides)
    return adversarial_search(SearchSpec(**base)).best


class TestRoundTrip:
    def test_as_dict_load_certificate_inverts(self):
        certificate = _search()
        assert load_certificate(certificate.as_dict()) == certificate

    def test_dict_form_is_json_safe_and_versioned(self):
        data = _search().as_dict()
        assert data["schema"] == CERTIFICATE_SCHEMA
        assert json.loads(json.dumps(data)) == data
        assert isinstance(data["wake_times"], str)  # compact encoding

    def test_file_round_trip(self, tmp_path):
        certificate = _search()
        path = write_certificate(certificate, tmp_path / "worst.json")
        assert read_certificates(path) == [certificate]


class TestSchemaGate:
    def test_newer_schema_is_rejected_with_source(self, tmp_path):
        data = _search().as_dict()
        data["schema"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CertificateSchemaError, match="99") as err:
            read_certificates(path)
        assert str(path) in str(err.value)

    def test_legacy_unmarked_certificate_is_rejected(self):
        data = _search().as_dict()
        del data["schema"]
        with pytest.raises(CertificateSchemaError, match="no schema marker"):
            load_certificate(data, source="legacy.json")

    def test_malformed_payload_names_the_source(self):
        data = _search().as_dict()
        del data["wake_times"]
        with pytest.raises(CertificateSchemaError, match="somewhere.json"):
            load_certificate(data, source="somewhere.json")

    def test_corrupted_file_is_rejected_not_crashed(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text("{not json")
        with pytest.raises(CertificateSchemaError, match="not valid JSON") as err:
            read_certificates(path)
        assert str(path) in str(err.value)

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(CertificateSchemaError, match="not a JSON object"):
            load_certificate(["nope"], source="list.json")


class TestReplay:
    def test_deterministic_certificate_replays_to_identical_latency(self):
        certificate = _search("scenario-b")
        replayed = replay_certificate(certificate)
        assert replayed == certificate

    def test_randomized_certificate_replays_to_identical_latency(self):
        certificate = _search("rpd", max_slots=5_000)
        replayed = replay_certificate(certificate)
        assert replayed == certificate

    def test_replay_detects_a_tampered_latency(self):
        certificate = _search()
        tampered = dataclasses.replace(certificate, latency=certificate.latency + 1)
        assert replay_certificate(tampered) != tampered

    def test_file_round_trip_then_replay(self, tmp_path):
        # The full CLI flow: search -> export -> read back -> replay.
        certificate = _search()
        path = write_certificate(certificate, tmp_path / "cert.json")
        (read,) = read_certificates(path)
        assert replay_certificate(read) == certificate


class TestEvaluationGenerator:
    def test_streams_are_deterministic_per_coordinates(self):
        a = evaluation_generator(3, "abcd", 2, 7).integers(0, 2**32, size=4)
        b = evaluation_generator(3, "abcd", 2, 7).integers(0, 2**32, size=4)
        assert a.tolist() == b.tolist()

    def test_streams_differ_across_coordinates(self):
        base = evaluation_generator(3, "abcd", 2, 7).integers(0, 2**32, size=4).tolist()
        for other in (
            evaluation_generator(4, "abcd", 2, 7),
            evaluation_generator(3, "abce", 2, 7),
            evaluation_generator(3, "abcd", 3, 7),
            evaluation_generator(3, "abcd", 2, 8),
        ):
            assert other.integers(0, 2**32, size=4).tolist() != base
