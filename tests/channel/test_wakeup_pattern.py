"""Tests for repro.channel.wakeup.WakeupPattern."""

from __future__ import annotations

import pytest

from repro.channel.wakeup import WakeupPattern


class TestConstruction:
    def test_basic_properties(self):
        p = WakeupPattern(8, {3: 0, 5: 2, 7: 2})
        assert p.k == 3
        assert p.n == 8
        assert p.first_wake == 0
        assert p.last_wake == 2
        assert p.stations == (3, 5, 7)
        assert len(p) == 3

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            WakeupPattern(8, {})

    def test_negative_wake_time_rejected(self):
        with pytest.raises(ValueError):
            WakeupPattern(8, {3: -1})

    def test_station_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WakeupPattern(8, {9: 0})
        with pytest.raises(ValueError):
            WakeupPattern(8, {0: 0})

    def test_wake_time_lookup(self):
        p = WakeupPattern(8, {3: 4})
        assert p.wake_time(3) == 4
        assert p.wake_time(5) is None


class TestDerivedViews:
    def test_awake_count_at(self):
        p = WakeupPattern(8, {3: 0, 5: 2, 7: 5})
        assert [p.awake_count_at(t) for t in (0, 1, 2, 4, 10)] == [1, 1, 2, 2, 3]

    def test_iteration_order_by_wake_time_then_id(self):
        p = WakeupPattern(8, {7: 2, 3: 0, 5: 2})
        assert list(p) == [(3, 0), (5, 2), (7, 2)]

    def test_shifted(self):
        p = WakeupPattern(8, {3: 4, 5: 6})
        shifted = p.shifted(3)
        assert shifted.first_wake == 7

    def test_shift_below_zero_rejected(self):
        p = WakeupPattern(8, {3: 1})
        with pytest.raises(ValueError):
            p.shifted(-2)

    def test_describe_mentions_key_parameters(self):
        text = WakeupPattern(8, {3: 0, 5: 6}).describe()
        assert "n=8" in text and "k=2" in text and "s=0" in text


class TestWakeTimesCodec:
    """encode_wake_times / decode_wake_times — the flat export form."""

    def test_round_trip_is_exact(self):
        from repro.channel.wakeup import decode_wake_times, encode_wake_times

        wake_times = {7: 2, 3: 0, 5: 2}
        text = encode_wake_times(wake_times)
        assert text == "3@0;5@2;7@2"  # sorted by station, stable
        assert decode_wake_times(text) == wake_times

    def test_pattern_survives_the_codec(self):
        from repro.channel.wakeup import decode_wake_times, encode_wake_times

        p = WakeupPattern(64, {5: 0, 17: 3, 40: 9})
        assert WakeupPattern(64, decode_wake_times(encode_wake_times(p.wake_times))) == p

    @pytest.mark.parametrize(
        "text", ["", "3@", "@2", "3@x;5@1", "3-0", "3@0;3@1", None, 42]
    )
    def test_malformed_encodings_fail_loudly(self, text):
        from repro.channel.wakeup import decode_wake_times

        with pytest.raises(ValueError):
            decode_wake_times(text)


class TestFromArrays:
    MAPPINGS = [
        {3: 0},
        {3: 0, 5: 2, 7: 2},
        {7: 2, 3: 0, 5: 2},
        {8: 11, 1: 0, 4: 3, 2: 3},
    ]

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_equals_the_mapping_constructor(self, mapping):
        import numpy as np

        expected = WakeupPattern(8, mapping)
        for stations, times in (
            (list(mapping), list(mapping.values())),
            (
                np.array(list(mapping), dtype=np.int32),
                np.array(list(mapping.values()), dtype=np.uint16),
            ),
        ):
            p = WakeupPattern.from_arrays(8, stations, times)
            assert p == expected
            assert list(p.wake_times.items()) == list(expected.wake_times.items())
            assert repr(p) == repr(expected)
            assert type(p.wake_times) is dict

    @pytest.mark.parametrize(
        ("stations", "times", "error"),
        [
            ([1.0], [0], TypeError),
            ([True], [0], TypeError),
            (["3"], [0], TypeError),
            ([9], [0], ValueError),
            ([0], [0], ValueError),
            ([-2], [0], ValueError),
            ([3], [-1], ValueError),
            ([], [], ValueError),
            ([3, 5, 3], [0, 1, 2], ValueError),
            ([3, 5], [0], ValueError),
        ],
    )
    def test_bad_input_raises_the_mapping_constructors_error(self, stations, times, error):
        with pytest.raises(error):
            WakeupPattern.from_arrays(8, stations, times)
        if len(stations) == len(times) and len(set(map(str, stations))) == len(stations):
            # The same content through the mapping constructor fails the same way.
            with pytest.raises(error):
                WakeupPattern(8, dict(zip(stations, times)))

    def test_wake_times_must_be_integers(self):
        # Stricter than the mapping constructor, which coerces with int().
        for times in ([0.5], [True], ["1"]):
            with pytest.raises(TypeError):
                WakeupPattern.from_arrays(8, [3], times)

    def test_bad_universe_is_rejected(self):
        with pytest.raises(ValueError):
            WakeupPattern.from_arrays(0, [1], [0])
        with pytest.raises(TypeError):
            WakeupPattern.from_arrays(8.0, [1], [0])

    def test_pickle_round_trip_drops_the_array_cache(self):
        import pickle

        p = WakeupPattern.from_arrays(8, [7, 3, 5], [2, 0, 2])
        assert "_pair_cache" in vars(p)
        restored = pickle.loads(pickle.dumps(p))
        assert restored == p
        assert list(restored.wake_times.items()) == list(p.wake_times.items())
        assert "_pair_cache" not in vars(restored)
        assert pickle.dumps(restored) == pickle.dumps(p)
        assert pickle.dumps(p) == pickle.dumps(WakeupPattern(8, {7: 2, 3: 0, 5: 2}))

    def test_fields_are_unchanged(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(WakeupPattern)] == ["n", "wake_times"]

    def test_derived_views_are_unchanged(self):
        mapping = {7: 2, 3: 0, 5: 4}
        p = WakeupPattern.from_arrays(8, list(mapping), list(mapping.values()))
        q = WakeupPattern(8, mapping)
        assert list(p) == list(q) == [(3, 0), (7, 2), (5, 4)]
        assert p.stations == q.stations == (3, 5, 7)
        assert (p.k, p.first_wake, p.last_wake) == (q.k, q.first_wake, q.last_wake) == (3, 0, 4)

    def test_pair_arrays_follow_insertion_order_and_are_read_only(self):
        import numpy as np

        source = np.array([7, 3, 5])
        p = WakeupPattern.from_arrays(8, source, [2, 0, 4])
        source[0] = 1  # the pattern keeps its own copy
        stations, times = p.pair_arrays()
        assert stations.tolist() == [7, 3, 5] and times.tolist() == [2, 0, 4]
        assert stations.dtype == times.dtype == np.int64
        with pytest.raises(ValueError):
            stations[0] = 1
        q = WakeupPattern(8, {7: 2, 3: 0, 5: 4})
        assert [a.tolist() for a in q.pair_arrays()] == [[7, 3, 5], [2, 0, 4]]
        assert q.pair_arrays()[0] is q.pair_arrays()[0]
