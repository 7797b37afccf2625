"""Load levels and schedules."""

import pytest

from repro.hardware.background import (
    IDLE,
    LOAD_LEVELS,
    U100H,
    U100L,
    LoadSchedule,
    fig2_levels,
    fig9_schedule,
)


class TestLoadLevels:
    def test_registry_names(self):
        assert set(LOAD_LEVELS) == {"0%", "30%", "50%", "70%", "90%", "100%(l)", "100%(h)"}

    def test_saturation_flags(self):
        assert U100L.utilization >= 1.0 and U100H.utilization >= 1.0
        assert IDLE.utilization < 1.0
        assert LOAD_LEVELS["90%"].utilization < 1.0

    def test_equal_utilisation_different_contention(self):
        """The paper's key distinction between 100%(l) and 100%(h)."""
        assert U100L.utilization == U100H.utilization == 1.0
        assert U100H.wait_mean_s > U100L.wait_mean_s
        assert U100H.contend_prob > U100L.contend_prob

    def test_fig2_levels_order(self):
        names = [lvl.name for lvl in fig2_levels()]
        assert names == ["30%", "50%", "70%", "90%", "100%(l)", "100%(h)"]

    def test_contention_grows_with_utilisation(self):
        ordered = ["0%", "30%", "50%", "70%", "90%", "100%(l)", "100%(h)"]
        probs = [LOAD_LEVELS[n].contend_prob for n in ordered]
        assert probs == sorted(probs)


class TestLoadSchedule:
    def test_lookup(self):
        schedule = LoadSchedule([(0.0, IDLE), (10.0, U100L)])
        assert schedule.level_at(0.0) is IDLE
        assert schedule.level_at(9.999) is IDLE
        assert schedule.level_at(10.0) is U100L
        assert schedule.level_at(1e9) is U100L

    def test_negative_time_clamps_to_first(self):
        schedule = LoadSchedule([(0.0, IDLE), (10.0, U100L)])
        assert schedule.level_at(-5.0) is IDLE

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LoadSchedule([(1.0, IDLE)])

    def test_must_be_sorted(self):
        with pytest.raises(ValueError):
            LoadSchedule([(0.0, IDLE), (20.0, U100L), (10.0, U100H)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadSchedule([])

    def test_fig9_schedule_shape(self):
        """0% -> ramp -> 100%(l) -> 100%(h) -> idle recovery."""
        schedule = fig9_schedule()
        assert schedule.level_at(0.0).utilization == 0.0
        assert schedule.level_at(120.0).name == "100%(l)"
        assert schedule.level_at(180.0).name == "100%(h)"
        assert schedule.level_at(250.0).utilization == 0.0
        names = [lvl.name for _, lvl in schedule.steps]
        assert names[0] == "0%" and names[-1] == "0%"
