import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wsn3d.geometry import (
    CorrelationModel,
    _squared_bound,
    _squared_distances,
    check_event,
    correlation,
    correlation_radius,
    dodeca_circumradius,
    dodeca_edge_from_circumradius,
    dodeca_vertices,
    dodeca_volume,
    event_volume,
    pairwise_distances,
)

MODEL = CorrelationModel(theta=30.0, alpha=1.0)

# frozen from an independent arbitrary-precision evaluation
EXP_MINUS_02 = 0.8187307530779819
RADIUS_085 = 4.875567884933247
RADIUS_085_ALPHA2 = 2.2080688134506242
VOLUME_085 = 485.47205116056333
CIRCUM_CONST = 1.401258538444074
VOLUME_CONST = 7.663118960624632


class TestCorrelation:
    def test_zero_distance_identity(self):
        assert correlation(MODEL, 0.0) == 1.0

    def test_inverse_by_construction(self):
        d = 30.0 * math.log(1.0 / 0.85)
        assert correlation(MODEL, d) == pytest.approx(0.85, abs=1e-12)

    def test_known_value_at_six_meters(self):
        assert correlation(MODEL, 6.0) == pytest.approx(EXP_MINUS_02, abs=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            correlation(MODEL, -0.1)

    def test_nan_distance_rejected_and_infinite_distance_uncorrelated(self):
        for d in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                correlation(MODEL, d)
        assert correlation(MODEL, math.inf) == 0.0

    def test_strictly_decreasing_and_in_range(self):
        d = np.linspace(0.0, 200.0, 2001)
        c = correlation(MODEL, d)
        assert np.all(np.diff(c) < 0.0)
        assert np.all((c > 0.0) & (c <= 1.0))

    def test_pure_function_bitwise(self):
        assert correlation(MODEL, 1.234) == correlation(MODEL, 1.234)

    def test_overflowing_exponent_is_uncorrelated(self):
        # d**alpha overflows, and so does d / theta for a tiny theta; neither warns
        assert correlation(CorrelationModel(theta=30.0, alpha=2.0), 1e200) == 0.0
        got = correlation(CorrelationModel(theta=1e-320), np.array([0.0, 1.0]))
        assert got.tolist() == [1.0, 0.0]


def test_distance_past_the_largest_float_is_inf():
    d = pairwise_distances([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    assert d.tolist() == [[0.0, math.inf, math.inf], [math.inf, 0.0, 3.0], [math.inf, 3.0, 0.0]]


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e154])
def test_distances_are_the_roots_of_the_squared_distances(scale):
    # bit for bit, with squares that underflow to 0 or overflow to inf
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.0, 2.0 * scale, (40, 3)), rng.uniform(0.0, 2.0 * scale, (7, 3))
    for args in ((a,), (a, b), (a[3], b)):
        assert pairwise_distances(*args).tobytes() == np.sqrt(_squared_distances(*args)).tobytes()


@given(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True, allow_subnormal=True))
@example(5e-324)
@example(sys.float_info.min)
@example(1e-200)
@example(1e200)
@example(sys.float_info.max)
def test_squared_bound_is_the_largest_square_within_the_radius(radius):
    bound = _squared_bound(radius)
    assert math.sqrt(bound) <= radius < math.sqrt(math.nextafter(bound, math.inf))


class TestCorrelationRadius:
    def test_paper_default_threshold(self):
        assert correlation_radius(MODEL, 0.85) == pytest.approx(RADIUS_085, abs=1e-9)

    def test_alpha_two(self):
        model = CorrelationModel(theta=30.0, alpha=2.0)
        assert correlation_radius(model, 0.85) == pytest.approx(RADIUS_085_ALPHA2, abs=1e-9)

    def test_tau_one_gives_zero(self):
        assert correlation_radius(MODEL, 1.0) == 0.0

    def test_tau_near_one_vanishes(self):
        assert correlation_radius(MODEL, 1.0 - 1e-12) < 1e-5

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 1.5, math.nan])
    def test_domain_errors(self, tau):
        with pytest.raises(ValueError):
            correlation_radius(MODEL, tau)

    def test_radius_past_the_largest_float_is_inf(self):
        # (30 ln(1/0.85))**1000 is about 1e688
        assert correlation_radius(CorrelationModel(theta=30.0, alpha=0.001), 0.85) == math.inf

    def test_round_trip_with_correlation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            model = CorrelationModel(
                theta=rng.uniform(1.0, 100.0), alpha=float(rng.choice([0.5, 1.0, 2.0]))
            )
            tau = rng.uniform(0.01, 0.99)
            assert abs(correlation(model, correlation_radius(model, tau)) - tau) < 1e-12


class TestEventVolume:
    def test_paper_default_threshold(self):
        assert event_volume(MODEL, 0.85) == pytest.approx(VOLUME_085, abs=1e-9)

    def test_matches_radius_definition_exactly(self):
        for tau in (0.1, 0.5, 0.85, 0.99):
            r = correlation_radius(MODEL, tau)
            assert event_volume(MODEL, tau) == 4.0 / 3.0 * math.pi * r**3

    def test_monotone_decreasing_in_tau(self):
        assert event_volume(MODEL, 0.7) > event_volume(MODEL, 0.85)

    def test_vanishes_as_tau_approaches_one(self):
        assert event_volume(MODEL, 1.0 - 1e-12) < 1e-12

    @pytest.mark.parametrize("alpha", [0.001, 0.004])
    def test_volume_past_the_largest_float_is_inf(self, alpha):
        # at alpha 0.004 the radius is finite (about 1e172) and only its cube overflows
        assert event_volume(CorrelationModel(theta=30.0, alpha=alpha), 0.85) == math.inf


class TestDodecahedron:
    def test_circumradius_unit_edge(self):
        assert dodeca_circumradius(1.0) == pytest.approx(CIRCUM_CONST, abs=1e-9)

    def test_circumradius_linear_in_edge(self):
        assert dodeca_circumradius(2.0) == pytest.approx(2 * CIRCUM_CONST, abs=1e-9)

    def test_edge_inverse_round_trip(self):
        for edge in (0.3, 1.0, 4.876):
            r = dodeca_circumradius(edge)
            assert dodeca_edge_from_circumradius(r) == pytest.approx(edge, abs=1e-12)

    def test_edge_from_paper_derived_radius(self):
        assert dodeca_edge_from_circumradius(RADIUS_085) == pytest.approx(3.4794, abs=1e-3)

    def test_edge_from_zero_radius(self):
        assert dodeca_edge_from_circumradius(0.0) == 0.0

    def test_negative_radius_rejected(self):
        for r in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="circumradius must be non-negative and finite"):
                dodeca_edge_from_circumradius(r)

    def test_volume_unit_edge(self):
        assert dodeca_volume(1.0) == pytest.approx(VOLUME_CONST, abs=1e-9)

    def test_volume_cubic_scaling(self):
        v1 = dodeca_volume(1.0)
        assert dodeca_volume(2.0) == pytest.approx(8.0 * v1, abs=1e-9)

    def test_volume_past_the_largest_float_is_inf(self):
        assert dodeca_volume(1e200) == math.inf

    def test_volume_inside_circumsphere(self):
        for edge in (0.5, 1.0, 3.0):
            v = dodeca_volume(edge)
            r = dodeca_circumradius(edge)
            assert v < 4.0 / 3.0 * math.pi * r**3

    def test_invalid_edge_rejected(self):
        for edge in (0.0, -1.0, math.nan, math.inf):
            for dodeca in (dodeca_circumradius, dodeca_volume, dodeca_vertices):
                with pytest.raises(ValueError, match=f"edge must be positive and finite, got {edge}"):
                    dodeca(edge)

    def test_vertices_have_requested_edge_and_circumradius(self):
        pts = dodeca_vertices(edge=1.0)
        assert pts.shape == (20, 3)
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, CIRCUM_CONST, atol=1e-12)
        # nearest-neighbor distance of each vertex is the edge length
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert np.allclose(d.min(axis=1), 1.0, atol=1e-12)


class TestModelValidation:
    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            CorrelationModel(theta=0.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            CorrelationModel(theta=30.0, alpha=alpha)

    def test_event_must_be_a_finite_3d_point(self):
        assert check_event([1, 2, 3]).tolist() == [1.0, 2.0, 3.0]
        for event in [(0.0, float("nan"), 0.0), (0.0, 0.0, float("-inf")), (0.0, 0.0), (1.0, 2.0, 3.0, 4.0)]:
            with pytest.raises(ValueError, match="event must be a finite 3D point"):
                check_event(event)
