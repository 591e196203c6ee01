"""Unit tests for the replication-accuracy metric (Table 7)."""

import pytest

from repro.core.accuracy import (
    replication_accuracy,
    signed_replication_error,
)


class TestSigned:
    def test_perfect_replay(self):
        assert signed_replication_error(1.0, 1.0) == 0.0

    def test_slow_replay_positive(self):
        assert signed_replication_error(1.1, 1.0) == pytest.approx(0.1)

    def test_fast_replay_negative(self):
        assert signed_replication_error(0.9, 1.0) == pytest.approx(-0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            signed_replication_error(0.0, 1.0)
        with pytest.raises(ValueError):
            signed_replication_error(1.0, -1.0)


class TestAbsolute:
    def test_symmetry(self):
        assert replication_accuracy(0.9, 1.0) == pytest.approx(replication_accuracy(1.1, 1.0))

    def test_matches_paper_formula(self):
        # |avg/anomaly - 1|
        assert replication_accuracy(1.0857, 1.0) == pytest.approx(0.0857)
