#!/usr/bin/env python
"""Ethernet-style burst arrivals: deterministic wake-up vs classical contention schemes.

The paper's motivation is shared-medium systems (Aloha, Ethernet) where "most
transmitters are inactive most of the time, while only a few are busy".  This
example models a burst: a handful of stations on a 256-station segment get a
frame to send within a few microseconds of each other (a batched wake-up
pattern) and must win the channel.

We compare:

* ``wakeup_with_k`` — the paper's Scenario B algorithm (knows only the bound k,
  needs no feedback at all);
* ``TDMA`` — static slot assignment;
* binary exponential backoff — Ethernet's strategy, which needs collision
  detection (a strictly stronger channel, flagged in the output);
* genie-tuned slotted ALOHA (p = 1/k) — the best-case randomized strawman.

Run with:

    python examples/ethernet_burst.py
"""

from __future__ import annotations

import numpy as np

from repro import WakeupWithK, run_deterministic, run_randomized
from repro.baselines import TDMA, BinaryExponentialBackoff, tuned_aloha
from repro.channel.adversary import batched_pattern
from repro.reporting import TextTable, ascii_line_plot


def main() -> None:
    n = 256
    k_bound = 16
    seeds = range(5)
    burst_sizes = [2, 4, 8, 16]

    protocol_b = WakeupWithK(n, k_bound, rng=7)
    tdma = TDMA(n)

    table = TextTable(
        ["burst size", "wakeup_with_k (worst)", "TDMA (worst)", "BEB (mean)", "tuned ALOHA (mean)"]
    )
    series = {"wakeup_with_k": [], "TDMA": [], "BEB": [], "tuned ALOHA": []}

    for burst in burst_sizes:
        deterministic_worst = {"wakeup_with_k": 0, "TDMA": 0}
        randomized_samples = {"BEB": [], "tuned ALOHA": []}
        for seed in seeds:
            rng = np.random.default_rng(seed)
            # Frames arrive in two back-to-back bursts a few slots apart.
            pattern = batched_pattern(
                n, burst, batch_size=max(1, burst // 2), batch_gap=3, rng=rng
            )
            deterministic_worst["wakeup_with_k"] = max(
                deterministic_worst["wakeup_with_k"],
                run_deterministic(protocol_b, pattern).require_solved(),
            )
            deterministic_worst["TDMA"] = max(
                deterministic_worst["TDMA"],
                run_deterministic(tdma, pattern).require_solved(),
            )
            beb = BinaryExponentialBackoff(n)
            randomized_samples["BEB"].append(
                run_randomized(beb, pattern, rng=rng, max_slots=100_000).require_solved()
            )
            aloha = tuned_aloha(n, burst)
            randomized_samples["tuned ALOHA"].append(
                run_randomized(aloha, pattern, rng=rng, max_slots=100_000).require_solved()
            )
        beb_mean = float(np.mean(randomized_samples["BEB"]))
        aloha_mean = float(np.mean(randomized_samples["tuned ALOHA"]))
        table.add_row(
            [
                burst,
                deterministic_worst["wakeup_with_k"],
                deterministic_worst["TDMA"],
                round(beb_mean, 1),
                round(aloha_mean, 1),
            ]
        )
        series["wakeup_with_k"].append(deterministic_worst["wakeup_with_k"])
        series["TDMA"].append(deterministic_worst["TDMA"])
        series["BEB"].append(beb_mean)
        series["tuned ALOHA"].append(aloha_mean)

    print(table.render())
    print()
    # A latency of 0 (success in the very first slot) cannot be drawn on a log
    # axis; clamp the plotted values to one slot.
    plotted = {name: [max(1.0, v) for v in values] for name, values in series.items()}
    print(
        ascii_line_plot(
            burst_sizes,
            plotted,
            title=f"Slots until the first collision-free frame (n = {n}, clamped to >= 1)",
            logy=True,
        )
    )
    print()
    print(
        "Notes: BEB uses collision detection (not available in the paper's model) and\n"
        "tuned ALOHA is told the exact burst size; wakeup_with_k needs neither and still\n"
        "beats static TDMA by a wide margin for small bursts — the paper's motivating gap."
    )


if __name__ == "__main__":
    main()
