"""Tests for repro.core.flatness (Algorithms 3 and 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Alias the paper-named ``test*`` functions so pytest does not collect them.
from repro.core.flatness import (
    REASON_COLLISION_OK,
    REASON_LIGHT,
    REASON_REJECTED,
    flatness_rows,
)
from repro.core.flatness import test_flatness_l1 as flatness_l1
from repro.core.flatness import test_flatness_l2 as flatness_l2
from repro.core.params import flatness_l1_min_hits
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch


def make_multi(dist, num_sets, set_size, rng):
    return MultiSketch.from_sample_sets(
        dist.sample_sets(num_sets, set_size, rng), dist.n
    )


@pytest.fixture(scope="module")
def uniform_multi():
    import numpy as np

    return make_multi(families.uniform(256), 9, 20_000, np.random.default_rng(5))


@pytest.fixture(scope="module")
def steep_multi():
    """Nearly all mass on 4 elements: conditionally very non-uniform.

    (l2 flatness needs *concentrated* deviations: a broad 2-level split
    keeps ``||p_I||_2^2`` within the eps^2 slack and is rightly accepted.)
    """
    import numpy as np

    dist = families.two_level(256, heavy_start=128, heavy_length=4, heavy_mass=0.97)
    return make_multi(dist, 9, 20_000, np.random.default_rng(6))


class TestFlatnessL2:
    def test_flat_interval_accepted(self, uniform_multi):
        result = flatness_l2(uniform_multi, 0, 256, 0.25)
        assert result.accepted

    def test_non_flat_interval_rejected(self, steep_multi):
        result = flatness_l2(steep_multi, 0, 256, 0.25)
        assert not result.accepted
        assert result.reason == REASON_REJECTED
        assert result.statistic > result.threshold

    def test_flat_sub_interval_accepted(self, steep_multi):
        assert flatness_l2(steep_multi, 128, 132, 0.25).accepted

    def test_light_interval_accepted_regardless(self, steep_multi):
        """The light half is accepted via step 1 (hit fraction < eps^2/2)."""
        result = flatness_l2(steep_multi, 0, 64, 0.5)
        assert result.accepted
        assert result.reason == REASON_LIGHT
        assert result.statistic is None

    def test_reason_collision_bound(self, uniform_multi):
        result = flatness_l2(uniform_multi, 0, 256, 0.25)
        assert result.reason == REASON_COLLISION_OK
        assert result.statistic == pytest.approx(1 / 256, rel=0.2)

    def test_single_element_always_accepted(self, steep_multi):
        assert flatness_l2(steep_multi, 200, 201, 0.25).accepted

    def test_empty_interval_raises(self, uniform_multi):
        with pytest.raises(InvalidParameterError):
            flatness_l2(uniform_multi, 5, 5, 0.25)

    def test_bad_epsilon_raises(self, uniform_multi):
        with pytest.raises(InvalidParameterError):
            flatness_l2(uniform_multi, 0, 10, 0.0)


class TestFlatnessL1:
    def test_flat_interval_accepted(self, uniform_multi):
        assert flatness_l1(uniform_multi, 0, 256, 0.25, scale=1e-4).accepted

    def test_non_flat_interval_rejected(self, steep_multi):
        result = flatness_l1(steep_multi, 0, 256, 0.25, scale=1e-4)
        assert not result.accepted

    def test_threshold_formula(self, uniform_multi):
        result = flatness_l1(uniform_multi, 0, 256, 0.25, scale=1e-4)
        assert result.threshold == pytest.approx((1 / 256) * (1 + 0.25**2 / 4))

    def test_light_accept_when_scale_large(self, steep_multi):
        """With the unscaled (paper) threshold these sketches are light."""
        result = flatness_l1(steep_multi, 0, 256, 0.25, scale=1.0)
        assert result.accepted
        assert result.reason == REASON_LIGHT

    def test_bad_scale_raises(self, uniform_multi):
        with pytest.raises(InvalidParameterError):
            flatness_l1(uniform_multi, 0, 10, 0.25, scale=0.0)

    def test_zero_weight_interval_accepted(self):
        import numpy as np

        from repro.distributions.base import DiscreteDistribution

        pmf = np.zeros(64)
        pmf[:32] = 1 / 32
        dist = DiscreteDistribution(pmf)
        multi = make_multi(dist, 5, 5_000, np.random.default_rng(4))
        assert flatness_l1(multi, 32, 64, 0.25, scale=1e-3).accepted
        assert flatness_l2(multi, 32, 64, 0.25).accepted


def _kernel_case(data):
    """A random batch for :func:`flatness_rows`: ``(B, r)`` rows, ``r`` in 1..8.

    Each row draws its hit counts above a floor of 0, 1 or ``m / 2``, so
    counts of 0 and 1 (no pairs, ratio 0) are common and rows land on
    both sides of the light thresholds; pair counts stay within
    ``C(hits, 2)``, and ``scale`` spans eight decades.
    """
    import numpy as np

    r = data.draw(st.integers(1, 8), label="r")
    rows = data.draw(st.integers(1, 6), label="rows")
    set_size = data.draw(st.integers(2, 5_000), label="set_size")
    counts = []
    for _ in range(rows):
        floor = data.draw(st.sampled_from([0, 1, set_size // 2]))
        hits = st.one_of(st.sampled_from([floor, floor + 1]), st.integers(floor, set_size))
        counts.append(data.draw(st.lists(hits, min_size=r, max_size=r)))
    pairs = [[data.draw(st.integers(0, c * (c - 1) // 2)) for c in row] for row in counts]
    lengths = data.draw(
        st.lists(
            st.one_of(st.integers(1, 16), st.integers(1, 4_096)),
            min_size=rows,
            max_size=rows,
        )
    )
    metric = data.draw(st.sampled_from(["l1", "l2"]), label="metric")
    epsilon = data.draw(st.floats(0.05, 0.95), label="epsilon")
    scale = min(1.0, 10 ** data.draw(st.floats(-8.0, 0.0), label="log10 scale"))
    return (
        np.array(counts, dtype=np.int64),
        np.array(pairs, dtype=np.int64),
        np.array(lengths, dtype=np.int64),
        metric,
        epsilon,
        scale,
        set_size,
    )


class TestKernel:
    """The one flatness kernel, against the papers' formulas row by row."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rows_match_their_scalar_formulas(self, data):
        import numpy as np

        counts, pairs, lengths, metric, epsilon, scale, set_size = _kernel_case(data)
        light, z, threshold = flatness_rows(
            counts, pairs, lengths, metric, epsilon, scale, set_size
        )
        for i, length in enumerate(lengths.tolist()):
            # Each row is the kernel run on that row alone, bit for bit.
            alone = flatness_rows(
                counts[i : i + 1], pairs[i : i + 1], lengths[i : i + 1],
                metric, epsilon, scale, set_size,
            )
            assert (light[i], z[i].tobytes(), threshold[i].tobytes()) == (
                alone[0][0], alone[1][0].tobytes(), alone[2][0].tobytes()
            )
            row = counts[i].tolist()
            if metric == "l1":
                min_hits = scale * flatness_l1_min_hits(length, epsilon)
                assert light[i] == any(c < min_hits for c in row)
            else:
                assert light[i] == any(c / set_size < epsilon**2 / 2 for c in row)
            if light[i]:
                continue
            ratios = [
                p / (c * (c - 1) // 2) if c > 1 else 0.0
                for p, c in zip(pairs[i].tolist(), row)
            ]
            assert z[i].tobytes() == np.median(np.array(ratios)).tobytes()
            if metric == "l1":
                bound = (1.0 / length) * (1.0 + epsilon**2 / 4.0)
            else:
                p_hat = 2.0 * counts[i] / set_size
                bound = 1.0 / length + float(np.max(epsilon**2 / (2.0 * p_hat)))
            assert threshold[i] == bound
