"""Pitch geometry: points, field layout, sink placement, the nearest-sink query.

All lengths are in yards. The pitch is the axis-aligned rectangle
[0, length] x [0, width]; sinks are fixed collection points on or near
its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

METERS_PER_YARD = 0.9144


@dataclass(frozen=True)
class Point:
    """A position on or near the pitch, in yards; both coordinates finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class FieldConfig:
    """Pitch dimensions plus an ordered set of (sink_id, position) pairs,
    whose ids are unique because ``six_sinks`` and ``goal_sinks`` make them so."""

    length: float = 106.0
    width: float = 68.0
    sinks: tuple[tuple[int, Point], ...] = ()

    def __post_init__(self):
        if not (0 < self.length < math.inf and 0 < self.width < math.inf):
            raise ValueError("field dimensions must be in (0, inf)")

    @classmethod
    def six_sinks(cls, length: float = 106.0, width: float = 68.0,
                  extended: bool = False) -> "FieldConfig":
        """Standard six-sink layout: one sink at each goal-line midpoint and
        two along each touchline.

        With ``extended=True`` the far-touchline pair sits on an apron beyond
        the pitch (y = 106 on the default field) instead of on the boundary.
        """
        xa = (17.0 * length) / 106.0
        xb = (51.0 * length) / 106.0
        top = (106.0 * width) / 68.0 if extended else width
        sinks = (
            (1, Point(0.0, width / 2.0)),
            (2, Point(xa, 0.0)),
            (3, Point(xb, 0.0)),
            (4, Point(length, width / 2.0)),
            (5, Point(xa, top)),
            (6, Point(xb, top)),
        )
        return cls(length, width, sinks)

    @classmethod
    def goal_sinks(cls, length: float = 106.0, width: float = 68.0) -> "FieldConfig":
        """Two-sink layout with one sink behind each goal."""
        sinks = (
            (1, Point(0.0, width / 2.0)),
            (2, Point(length, width / 2.0)),
        )
        return cls(length, width, sinks)


def nearest_sink_xy(x: float, y: float,
                    field: FieldConfig) -> tuple[int, float, Point]:
    """Return (sink_id, distance, position) of the sink closest to
    ``(x, y)``; ties go to the lowest id.

    The distance, in yards, is ``math.hypot(x - pos.x, y - pos.y)``.
    """
    best_id, best_d, best_pos = None, math.inf, None
    for sid, pos in field.sinks:
        d = math.hypot(x - pos.x, y - pos.y)
        if d < best_d or (d == best_d and sid < best_id):
            best_id, best_d, best_pos = sid, d, pos
    return best_id, best_d, best_pos
