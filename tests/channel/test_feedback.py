"""Tests for repro.channel.feedback."""

from __future__ import annotations

import numpy as np

from repro.channel.events import SlotOutcome
from repro.channel.feedback import (
    OUTCOME_CODES,
    CollisionDetection,
    FeedbackSignal,
    NoCollisionDetection,
    signal_table,
)


class TestNoCollisionDetection:
    def test_success_is_observable(self):
        model = NoCollisionDetection()
        assert model.observe(SlotOutcome.SUCCESS, transmitted=False) is FeedbackSignal.SUCCESS
        assert model.observe(SlotOutcome.SUCCESS, transmitted=True) is FeedbackSignal.SUCCESS

    def test_collision_and_silence_indistinguishable(self):
        model = NoCollisionDetection()
        collision = model.observe(SlotOutcome.COLLISION, transmitted=True)
        silence = model.observe(SlotOutcome.SILENCE, transmitted=False)
        assert collision is FeedbackSignal.QUIET
        assert silence is FeedbackSignal.QUIET


class TestCollisionDetection:
    def test_ternary_feedback(self):
        model = CollisionDetection()
        assert model.observe(SlotOutcome.SUCCESS, transmitted=False) is FeedbackSignal.SUCCESS
        assert model.observe(SlotOutcome.COLLISION, transmitted=True) is FeedbackSignal.COLLISION
        assert model.observe(SlotOutcome.SILENCE, transmitted=False) is FeedbackSignal.QUIET

    def test_model_names_distinct(self):
        assert NoCollisionDetection().name != CollisionDetection().name

    def test_observe_ignores_own_transmission(self):
        # Ternary feedback is broadcast: a station's signal depends on the
        # slot outcome alone, whether or not it transmitted itself.
        model = CollisionDetection()
        for outcome in SlotOutcome:
            assert model.observe(outcome, transmitted=True) is model.observe(
                outcome, transmitted=False
            )


class TestSignalCodes:
    def test_codes_are_distinct_and_stable(self):
        codes = {signal.code for signal in FeedbackSignal}
        assert codes == {0, 1, 2}
        assert FeedbackSignal.QUIET.code == 0
        assert FeedbackSignal.SUCCESS.code == 1
        assert FeedbackSignal.COLLISION.code == 2

    def test_outcome_codes_cover_every_outcome(self):
        assert set(OUTCOME_CODES) == set(SlotOutcome)
        assert sorted(OUTCOME_CODES.values()) == [0, 1, 2]


class TestSignalTable:
    def test_tabulates_every_model_exactly(self):
        # The table is the model: lut[outcome, transmitted] must reproduce
        # observe() for all six combinations, for both library models.
        for model in (NoCollisionDetection(), CollisionDetection()):
            lut = signal_table(model)
            assert lut.shape == (3, 2) and lut.dtype == np.int8
            for outcome, row in OUTCOME_CODES.items():
                for transmitted in (False, True):
                    expected = model.observe(outcome, transmitted=transmitted)
                    assert lut[row, int(transmitted)] == expected.code

    def test_no_collision_detection_masks_collisions(self):
        lut = signal_table(NoCollisionDetection())
        collision_row = lut[OUTCOME_CODES[SlotOutcome.COLLISION]]
        silence_row = lut[OUTCOME_CODES[SlotOutcome.SILENCE]]
        np.testing.assert_array_equal(collision_row, silence_row)
        assert (collision_row == FeedbackSignal.QUIET.code).all()

    def test_collision_detection_is_ternary(self):
        lut = signal_table(CollisionDetection())
        assert set(lut.ravel().tolist()) == {0, 1, 2}
