import math

import pytest
from hypothesis import given, strategies as st

from pitchsim.geometry import FieldConfig, Point, nearest_sink_xy

coords = st.floats(min_value=-500, max_value=500, allow_nan=False)
points = st.builds(Point, coords, coords)

DEFAULT = FieldConfig.six_sinks()


def distance(a: Point, b: Point) -> float:
    """Euclidean distance in yards: the tests' oracle for every distance
    the package computes inline."""
    return math.hypot(a.x - b.x, a.y - b.y)


def test_distance_345_triangle():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_distance_identity():
    assert distance(Point(17, 0), Point(17, 0)) == 0.0


def test_distance_between_goal_line_sinks():
    sinks = dict(DEFAULT.sinks)
    assert distance(sinks[1], sinks[4]) == 106.0


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


@given(points, points)
def test_distance_symmetric_nonnegative(a, b):
    assert distance(a, b) == distance(b, a) >= 0.0
    assert distance(a, a) == 0.0


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_six_sink_layout_corrected():
    assert DEFAULT.sinks == (
        (1, Point(0.0, 34.0)), (2, Point(17.0, 0.0)), (3, Point(51.0, 0.0)),
        (4, Point(106.0, 34.0)), (5, Point(17.0, 68.0)), (6, Point(51.0, 68.0)),
    )


def test_six_sink_layout_extended_apron():
    ext = FieldConfig.six_sinks(extended=True)
    assert dict(ext.sinks)[5] == Point(17.0, 106.0)
    assert dict(ext.sinks)[6] == Point(51.0, 106.0)


def test_corrected_sinks_lie_on_boundary():
    for _, p in DEFAULT.sinks:
        on_x_edge = p.x in (0.0, DEFAULT.length)
        on_y_edge = p.y in (0.0, DEFAULT.width)
        assert on_x_edge or on_y_edge


def test_nearest_sink_by_exhaustive_comparison():
    # oracle: compare against every configured sink explicitly
    p = Point(1, 34)
    dists = {sid: distance(p, pos) for sid, pos in DEFAULT.sinks}
    expected = min(dists, key=lambda sid: (dists[sid], sid))
    sid, d = nearest_sink_xy(p.x, p.y, DEFAULT)[:2]
    assert (sid, d) == (expected, dists[expected]) == (1, 1.0)


def test_nearest_sink_coincident_point():
    assert nearest_sink_xy(0.0, 34.0, DEFAULT)[:2] == (1, 0.0)


def test_nearest_sink_center_tie_breaks_low_id():
    # (53,34) is equidistant from sinks 3 and 6; exhaustive check again
    p = Point(53, 34)
    dists = sorted((distance(p, pos), sid) for sid, pos in DEFAULT.sinks)
    assert dists[0][0] == dists[1][0]  # genuine tie
    sid, d = nearest_sink_xy(p.x, p.y, DEFAULT)[:2]
    assert sid == 3
    assert d == math.sqrt(2 * 2 + 34 * 34)


@given(points)
def test_nearest_sink_dominates_all_sinks(p):
    sid, d = nearest_sink_xy(p.x, p.y, DEFAULT)[:2]
    for other_id, pos in DEFAULT.sinks:
        assert d <= distance(p, pos)


def test_field_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        FieldConfig(0, 68)


def test_goal_sinks_preset():
    two = FieldConfig.goal_sinks()
    assert two.sinks == ((1, Point(0.0, 34.0)), (2, Point(106.0, 34.0)))
