"""Tests for repro.core.round_robin."""

from __future__ import annotations


from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.core.round_robin import RoundRobin


class TestRoundRobin:
    def test_transmits_only_on_own_turn(self):
        rr = RoundRobin(4)
        for t in range(12):
            transmitters = [u for u in range(1, 5) if rr.transmits(u, 0, t)]
            assert transmitters == [t % 4 + 1]

    def test_no_transmission_before_wake(self):
        rr = RoundRobin(4)
        assert not rr.transmits(1, 5, 4)
        assert rr.transmits(1, 5, 8)

    def test_transmit_slots_vectorized_matches_scalar(self):
        rr = RoundRobin(7)
        for station in range(1, 8):
            for wake in (0, 3, 10):
                expected = [t for t in range(0, 50) if rr.transmits(station, wake, t)]
                got = rr.transmit_slots(station, wake, 0, 50).tolist()
                assert got == expected

    def test_transmit_slots_partial_window(self):
        rr = RoundRobin(5)
        assert rr.transmit_slots(3, 0, 4, 14).tolist() == [7, 12]
        assert rr.transmit_slots(3, 0, 10, 10).size == 0

    def test_simultaneous_worst_case_is_n_minus_k_plus_one_slots(self):
        # The k stations with the latest turns force n - k wasted slots.
        n, k = 16, 4
        stations = list(range(n - k + 1, n + 1))
        pattern = WakeupPattern(n, {u: 0 for u in stations})
        result = run_deterministic(RoundRobin(n), pattern)
        assert result.solved
        assert result.latency == n - k  # slots 0 .. n-k-1 wasted, success at n-k

    def test_single_station_latency_bounded_by_n_minus_one(self):
        n = 16
        for station in (1, 8, 16):
            result = run_deterministic(RoundRobin(n), WakeupPattern(n, {station: 0}))
            assert result.latency <= n - 1

    def test_always_solves_within_n_slots_of_first_wake(self, rng):
        n = 24
        for _ in range(10):
            k = int(rng.integers(1, n + 1))
            stations = rng.choice(n, size=k, replace=False) + 1
            wake_times = {int(u): int(rng.integers(0, 30)) for u in stations}
            pattern = WakeupPattern(n, wake_times)
            result = run_deterministic(RoundRobin(n), pattern)
            assert result.solved
            assert result.latency <= n
