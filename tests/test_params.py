"""Tests for repro.core.params (the paper's formulas)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.params import (
    GreedyParams,
    TesterParams,
    flatness_l1_min_hits,
    greedy_rounds,
    validate_epsilon,
    xi,
)
from repro.errors import InvalidParameterError


class TestXi:
    def test_formula(self):
        assert xi(4, 0.1) == pytest.approx(0.1 / (4 * math.log(10)))

    def test_decreasing_in_k(self):
        assert xi(8, 0.1) < xi(2, 0.1)

    def test_epsilon_bounds(self):
        with pytest.raises(InvalidParameterError):
            xi(4, 0.0)
        with pytest.raises(InvalidParameterError):
            xi(4, 1.0)

    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            xi(0, 0.1)


class TestGreedyRounds:
    def test_formula(self):
        assert greedy_rounds(4, 0.1) == math.ceil(4 * math.log(10))

    def test_at_least_one(self):
        assert greedy_rounds(1, 0.9) >= 1

    def test_scales_with_k(self):
        # ceil() makes the doubling inexact by at most one round
        assert abs(greedy_rounds(8, 0.1) - 2 * greedy_rounds(4, 0.1)) <= 1


class TestGreedyParams:
    def test_paper_formulas(self):
        params = GreedyParams.from_paper(1000, 4, 0.1)
        accuracy = xi(4, 0.1)
        assert params.weight_sample_size == math.ceil(
            math.log(12 * 1000**2) / (2 * accuracy**2)
        )
        assert params.collision_set_size == math.ceil(24 / accuracy**2)
        assert params.rounds == greedy_rounds(4, 0.1)

    def test_collision_sets_odd(self):
        assert GreedyParams.from_paper(1000, 4, 0.1).collision_sets % 2 == 1

    def test_scale_reduces_set_sizes(self):
        full = GreedyParams.from_paper(1000, 4, 0.1, scale=1.0)
        tiny = GreedyParams.from_paper(1000, 4, 0.1, scale=0.01)
        assert tiny.weight_sample_size < full.weight_sample_size
        assert tiny.collision_set_size < full.collision_set_size
        assert tiny.collision_sets == full.collision_sets  # r not scaled
        assert tiny.rounds == full.rounds

    def test_total_samples(self):
        params = GreedyParams(100, 5, 200, 3)
        assert params.total_samples == 100 + 5 * 200

    def test_log_dependence_on_n(self):
        """Sample complexity grows logarithmically in n (Theorem 1)."""
        small = GreedyParams.from_paper(100, 4, 0.1)
        big = GreedyParams.from_paper(100_000, 4, 0.1)
        ratio = big.weight_sample_size / small.weight_sample_size
        assert ratio < 4  # log(1e10)/log(1.2e5) ~ 2

    def test_invalid_scale(self):
        with pytest.raises(InvalidParameterError):
            GreedyParams.from_paper(100, 4, 0.1, scale=0.0)
        with pytest.raises(InvalidParameterError):
            GreedyParams.from_paper(100, 4, 0.1, scale=1.5)

    def test_invalid_fields(self):
        with pytest.raises(InvalidParameterError):
            GreedyParams(0, 5, 200, 3)


class TestTesterParams:
    def test_l2_formula(self):
        params = TesterParams.l2_from_paper(1000, 0.25)
        assert params.set_size == math.ceil(64 * math.log(1000) / 0.25**4)
        assert params.num_sets >= 16 * math.log(6 * 1000**2)

    def test_l1_formula(self):
        params = TesterParams.l1_from_paper(1000, 4, 0.25)
        expected = math.ceil(2**13 * math.sqrt(4 * 1000) / 0.25**5)
        assert params.set_size == expected

    def test_l1_scales_with_sqrt_kn(self):
        """Theorem 4: m ~ sqrt(kn)."""
        base = TesterParams.l1_from_paper(1000, 4, 0.25).set_size
        quad = TesterParams.l1_from_paper(4000, 4, 0.25).set_size
        assert quad == pytest.approx(2 * base, rel=0.01)

    def test_l2_polylog_in_n(self):
        """Theorem 3: m ~ ln n (not polynomial)."""
        small = TesterParams.l2_from_paper(100, 0.25).set_size
        big = TesterParams.l2_from_paper(10_000, 0.25).set_size
        assert big / small < 3

    def test_total_samples(self):
        assert TesterParams(10, 100).total_samples == 1000

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TesterParams(0, 100)
        with pytest.raises(InvalidParameterError):
            TesterParams.l2_from_paper(100, 1.5)


class TestFlatnessThreshold:
    def test_formula(self):
        assert flatness_l1_min_hits(64, 0.5) == pytest.approx(
            16**3 * 8 / 0.5**4
        )

    def test_grows_with_length(self):
        assert flatness_l1_min_hits(100, 0.5) > flatness_l1_min_hits(10, 0.5)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            flatness_l1_min_hits(0, 0.5)
        with pytest.raises(InvalidParameterError):
            flatness_l1_min_hits(10, 1.5)
        with pytest.raises(InvalidParameterError):
            flatness_l1_min_hits(np.array([3, 0]), 0.5)

    def test_array_of_lengths_matches_scalar_math(self):
        lengths = np.arange(1, 5_000)
        expected = [(16**3) * math.sqrt(x) / 0.3**4 for x in lengths.tolist()]
        assert flatness_l1_min_hits(lengths, 0.3).tolist() == expected


class TestValidateEpsilon:
    def test_real_values_pass_on_as_float(self):
        for value in (0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)):
            out = validate_epsilon(value)
            assert type(out) is float and out == 0.25

    @pytest.mark.parametrize(
        "bad", [0.0, 1.0, -0.5, 2, float("nan"), True, np.True_, "0.3", None, 0.3 + 0j]
    )
    def test_refused(self, bad):
        with pytest.raises(InvalidParameterError, match=r"epsilon must be in \(0, 1\)"):
            validate_epsilon(bad)


class TestPositiveIntegerChecks:
    """Every domain-size check is ``validate_k``: bools, text and
    fractions are refused with one message, never a bare TypeError."""

    @staticmethod
    def _sites():
        from repro.api.session import HistogramSession
        from repro.core.candidates import all_interval_candidates, sample_endpoint_candidates
        from repro.core.identity import identity_sample_size
        from repro.core.uniformity import uniformity_sample_size
        from repro.distributions.families import uniform
        from repro.histograms.validation import validate_domain_size
        from repro.samples.collision import dense_interval_prefixes

        return {
            "session": lambda n: HistogramSession(np.full(4, 0.25), n),
            "greedy-params": lambda n: GreedyParams.from_paper(n, 2, 0.3),
            "uniformity": lambda n: uniformity_sample_size(n, 0.3),
            "identity": lambda n: identity_sample_size(n, 0.3),
            "all-intervals": all_interval_candidates,
            "endpoints": lambda n: sample_endpoint_candidates(np.arange(4), n),
            "dense-prefixes": lambda n: dense_interval_prefixes([np.arange(4)], n),
            "families": uniform,
            "domain-size": validate_domain_size,
        }

    @pytest.mark.parametrize("bad", [True, 2.5, "abc", 0, float("nan")])
    @pytest.mark.parametrize(
        "site",
        [
            "session",
            "greedy-params",
            "uniformity",
            "identity",
            "all-intervals",
            "endpoints",
            "dense-prefixes",
            "families",
            "domain-size",
        ],
    )
    def test_refused(self, site, bad):
        with pytest.raises(InvalidParameterError, match="n must be a positive integer"):
            self._sites()[site](bad)

