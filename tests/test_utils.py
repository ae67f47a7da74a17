"""Tests for repro.utils (rng, bytesize, timing, identifiers, validation)."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import SeedSequenceFactory, derive_seed, rng_from_seed
from repro.utils.timing import Stopwatch
from repro.utils.validation import require_in_range, require_positive, validate_identifier


# ---------------------------------------------------------------------- rng

class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_base(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_non_negative(self):
        for base in (0, 1, 123456789):
            assert derive_seed(base, "x") >= 0

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_always_valid_numpy_seed(self, base, name):
        rng = np.random.default_rng(derive_seed(base, name))
        assert isinstance(rng.random(), float)


class TestSeedSequenceFactory:
    def test_same_component_same_stream(self):
        a = SeedSequenceFactory(7).generator("dataset").random(5)
        b = SeedSequenceFactory(7).generator("dataset").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_components_different_streams(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("dataset").random(5)
        b = factory.generator("clients").random(5)
        assert not np.array_equal(a, b)

    def test_rng_from_seed_matches_factory(self):
        assert rng_from_seed(9, "z").random() == SeedSequenceFactory(9).generator("z").random()


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        watch.start()
        time.sleep(0.01)
        first = watch.stop()
        assert first > 0
        watch.start()
        time.sleep(0.01)
        assert watch.stop() > first

    def test_context_manager(self):
        with Stopwatch() as watch:
            time.sleep(0.005)
        assert watch.elapsed >= 0.004

# -------------------------------------------------------------- identifiers

class TestIdentifiers:
    @pytest.mark.parametrize("bad", ["", "has space", "has/slash", "has+plus", "has#hash", "ünicode"])
    def test_invalid_identifiers_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_identifier(bad)

    @pytest.mark.parametrize("good", ["client_1", "a-b.c:d", "X", "session_000042"])
    def test_valid_identifiers_accepted(self, good):
        assert validate_identifier(good) == good


# --------------------------------------------------------------- validation

class TestValidation:
    def test_require_positive_strict(self):
        assert require_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            require_positive(0, "x")

    def test_require_positive_non_strict(self):
        assert require_positive(0, "x", strict=False) == 0
        with pytest.raises(ValueError):
            require_positive(-1, "x", strict=False)

    def test_require_in_range_inclusive(self):
        assert require_in_range(0.0, "x", 0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            require_in_range(1.5, "x", 0.0, 1.0)

    def test_require_in_range_exclusive(self):
        with pytest.raises(ValueError):
            require_in_range(0.0, "x", 0.0, 1.0, inclusive=False)
