"""Group-reference player movement with a sprint/run/walk effort schedule.

Players track a shared reference point (random-waypoint motion across
the pitch) plus a fixed formation offset and a fresh random deviation
each step, with the actual move capped by the speed of the player's
current effort mode. The scheduler draws sprint onsets as a per-second
hazard tuned so the expected sprint count over a match matches
``sprints_per_match``; every sprint is followed by an uninterruptible
walking recovery of ``rest_multiple`` times its length, and the rest of
the time alternates run and walk episodes. The sprint count is over a
full match of ``MATCH_SECONDS``, whatever the number of rounds played.

Every step is one round, one second of match time. Speeds are km/h,
positions yards, durations seconds, accumulated distance km.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import cos, hypot, inf, pi, sin, sqrt

from .geometry import METERS_PER_YARD, FieldConfig, Point

KMH_TO_YDS = (1000.0 / METERS_PER_YARD) / 3600.0   # km/h -> yd/s
KM_PER_YARD = METERS_PER_YARD / 1000.0

TWO_PI = 2.0 * pi
MATCH_SECONDS = 5400.0

WALK, RUN, SPRINT = "walk", "run", "sprint"   # a player's effort mode


@dataclass(frozen=True)
class MobilityParams:
    """Movement and effort-schedule settings: mode speeds in km/h, sprint
    lengths and episode means in seconds, sprints per full match, the
    recovery as a multiple of the sprint's length, the deviation radius in
    yards and the group reference's speed in km/h. It adds
    ``sprint_hazard``, the per-second sprint onset probability."""

    v_run_min: float = 10.3
    v_run_max: float = 12.9
    v_sprint: float = 25.0
    v_walk: float = 4.5
    sprint_min_s: int = 2
    sprint_max_s: int = 5
    sprints_per_match: float = 100.0
    rest_multiple: float = 2.0           # recovery length as multiple of sprint length
    deviation_radius: float = 5.0        # yards
    group_speed_kmh: float = 7.0
    run_episode_mean_s: float = 14.0
    walk_episode_mean_s: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.v_walk < self.v_run_min <= self.v_run_max < self.v_sprint < inf:
            raise ValueError("speeds must satisfy 0 <= walk < run_min <= run_max < sprint < inf")
        if not (type(self.sprint_min_s) is int and type(self.sprint_max_s) is int
                and 0 < self.sprint_min_s <= self.sprint_max_s):
            raise ValueError("sprint duration range is invalid")
        if not 0 <= self.sprints_per_match < inf:
            raise ValueError("sprints_per_match must be in [0, inf)")
        if not (0 <= self.rest_multiple < inf and 0 <= self.deviation_radius < inf
                and 0 <= self.group_speed_kmh < inf):
            raise ValueError("rest_multiple, deviation_radius, group_speed must be in [0, inf)")
        if not (0 < self.run_episode_mean_s < inf and 0 < self.walk_episode_mean_s < inf):
            raise ValueError("episode means must be in (0, inf)")
        # per-second sprint onset probability outside sprints and recoveries;
        # the scheduler reads it every player-second, so it is computed once
        hazard = 0.0
        if self.sprints_per_match > 0:
            try:
                mean_sprint = (self.sprint_min_s + self.sprint_max_s) / 2.0
            except OverflowError:   # a length too large for a float
                raise ValueError("sprint duration range is invalid") from None
            busy = self.sprints_per_match * mean_sprint * (1.0 + self.rest_multiple)
            eligible = MATCH_SECONDS - busy
            if eligible <= 0:
                raise ValueError("sprints_per_match does not fit in a match "
                                 "with the given durations and rest_multiple")
            hazard = self.sprints_per_match / eligible
        object.__setattr__(self, "sprint_hazard", hazard)


@dataclass(slots=True)
class PlayerKinematics:
    """One player's movement state, changed in place every second: its
    position and formation offset in yards, its mode (``WALK``, ``RUN`` or
    ``SPRINT``) with the seconds left in it and its speed in km/h, the
    recovery flag, the current or last sprint's length in seconds, and the
    distance covered in km."""

    player_id: int
    x: float
    y: float
    offset_x: float
    offset_y: float
    mode: str = WALK
    mode_time_left: float = 0.0
    speed_kmh: float = 0.0
    recovering: bool = False        # in the walk after a sprint; blocks sprint onset
    sprint_len: float = 0.0         # drawn length of the current/last sprint
    cumulative_km: float = 0.0


def _begin_next_episode(k: PlayerKinematics, p: MobilityParams, rng: random.Random) -> None:
    # alternate walk and run; each run episode re-draws its own pace
    k.recovering = False
    if k.mode == RUN:
        k.mode = WALK
        k.speed_kmh = p.v_walk
        k.mode_time_left = rng.uniform(0.5, 1.5) * p.walk_episode_mean_s
    else:
        k.mode = RUN
        k.speed_kmh = rng.uniform(p.v_run_min, p.v_run_max)
        k.mode_time_left = rng.uniform(0.5, 1.5) * p.run_episode_mean_s


def schedule_mode(k: PlayerKinematics, p: MobilityParams,
                  rng: random.Random) -> str:
    """Advance the effort schedule by one second and return the mode for
    this step; ``k.recovering`` blocks sprint onsets until the walk after a
    sprint, ``rest_multiple`` times its length, runs out."""
    mode = k.mode
    if mode == SPRINT:
        if k.mode_time_left <= 0.0:
            # sprint over: forced walking recovery, immune to new onsets
            mode = k.mode = WALK
            k.speed_kmh = p.v_walk
            k.mode_time_left = p.rest_multiple * k.sprint_len
            k.recovering = k.mode_time_left > 0.0
    elif k.mode_time_left <= 0.0:
        _begin_next_episode(k, p, rng)   # walk or run: ``mode`` stays not SPRINT

    if mode != SPRINT and not k.recovering:
        hazard = p.sprint_hazard
        if hazard > 0.0 and rng.random() < hazard:
            length = float(rng.randint(p.sprint_min_s, p.sprint_max_s))
            k.mode = SPRINT
            k.speed_kmh = p.v_sprint
            k.mode_time_left = length
            k.sprint_len = length

    k.mode_time_left -= 1.0
    return k.mode


def step_player(k: PlayerKinematics, ref: GroupReference | Point, field: FieldConfig,
                p: MobilityParams, rng: random.Random) -> PlayerKinematics:
    """Move one player toward its formation slot around ``(ref.x, ref.y)``.

    The target is ref + offset + a uniform draw from the deviation disc,
    clamped to the pitch; the move toward it is capped at the distance the
    current mode speed covers in one second. The deviation is drawn even
    at zero speed so RNG consumption does not depend on the mode
    sequence.
    """
    r = p.deviation_radius * sqrt(rng.random())
    theta = TWO_PI * rng.random()
    tx = ref.x + k.offset_x + r * cos(theta)
    ty = ref.y + k.offset_y + r * sin(theta)
    # min(max(t, 0.0), side) without builtin calls (~10x dearer), same floats
    side = field.length
    tx = 0.0 if tx < 0.0 else (side if tx > side else tx)
    side = field.width
    ty = 0.0 if ty < 0.0 else (side if ty > side else ty)

    cap = k.speed_kmh * KMH_TO_YDS
    dx = tx - k.x
    dy = ty - k.y
    dist = hypot(dx, dy)
    if dist > cap:
        if cap <= 0.0:
            return k
        scale = cap / dist
        tx = k.x + dx * scale
        ty = k.y + dy * scale
        moved = cap
    else:
        moved = dist
    k.cumulative_km += moved * KM_PER_YARD
    k.x = tx
    k.y = ty
    return k


@dataclass(slots=True)
class GroupReference:
    """Shared reference point following random-waypoint motion."""

    x: float
    y: float
    waypoint_x: float
    waypoint_y: float

    @classmethod
    def centered(cls, field: FieldConfig) -> "GroupReference":
        cx, cy = field.length / 2.0, field.width / 2.0
        return cls(cx, cy, cx, cy)


def step_group_reference(g: GroupReference, field: FieldConfig, p: MobilityParams,
                         rng: random.Random) -> None:
    """Advance the reference one second toward its waypoint, redrawing on
    arrival."""
    cap = p.group_speed_kmh * KMH_TO_YDS
    dx = g.waypoint_x - g.x
    dy = g.waypoint_y - g.y
    dist = hypot(dx, dy)
    if dist <= cap:
        g.x, g.y = g.waypoint_x, g.waypoint_y
        g.waypoint_x = rng.uniform(0.0, field.length)
        g.waypoint_y = rng.uniform(0.0, field.width)
    else:
        scale = cap / dist
        g.x += dx * scale
        g.y += dy * scale


# One mirrored 1-4-4-2 slot template per team, in yards on the default
# pitch; the twelfth slot hosts the optional extra player. Offsets scale
# with the field so formations keep their shape on non-default pitches.
_TEAM_TEMPLATE = (
    (-38.0, 0.0),
    (-26.0, -21.0), (-26.0, -7.0), (-26.0, 7.0), (-26.0, 21.0),
    (-12.0, -21.0), (-12.0, -7.0), (-12.0, 7.0), (-12.0, 21.0),
    (2.0, -8.0), (2.0, 8.0),
    (-5.0, 0.0),
)

MAX_PLAYERS = 2 * len(_TEAM_TEMPLATE)


def make_players(n_players: int, field: FieldConfig) -> list[PlayerKinematics]:
    """Players placed at their formation slots around the pitch center: two
    mirrored teams of up to 12 players each, the home side one larger if odd."""
    sx = field.length / 106.0
    sy = field.width / 68.0
    away = n_players // 2
    offsets = [(ox * sx, oy * sy) for ox, oy in _TEAM_TEMPLATE[:n_players - away]]
    offsets += [(-ox * sx, oy * sy) for ox, oy in _TEAM_TEMPLATE[:away]]
    cx, cy = field.length / 2.0, field.width / 2.0
    return [PlayerKinematics(pid, cx + ox, cy + oy, ox, oy)
            for pid, (ox, oy) in enumerate(offsets)]

