"""Scenario configuration: defaults, validation, and the flat key=value file.

The file format is deliberately plain text, one ``key = value`` per
line, ``#`` comments, dotted section prefixes (``mobility.v_walk``).
Omitted keys take documented defaults; unknown or duplicate keys are
rejected. An empty file is the default scenario.

A valid scenario's reports hold no inf: ``check_report_bounds`` runs the
model's own code on a worst case, for one run or a compare's pooled runs.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .channel import ChannelParams, propagation_delay
from .energy import RadioModel
from .geometry import FieldConfig
from .mobility import MAX_PLAYERS, MobilityParams
from .physiology import MGDL_PER_MMOL_L, FatigueThresholds, LactateParams
from .protocol import THEFAME, WSTM, Hop, Route

CORRECTED = "corrected"
EXTENDED = "extended"


class ScenarioError(Exception):
    """Base for configuration problems."""


class ParseError(ScenarioError):
    """Malformed scenario text; carries line and key context."""


class ValidationError(ScenarioError):
    """Structurally valid text violating a scenario invariant."""


@dataclass(frozen=True)
class Scenario:
    """One run's whole configuration, as a scenario file sets it: the
    protocol, the seed, the number of one-second rounds and of players, the
    field in yards and its sink placement, each model's section, the
    initial battery in joules, and wstm's hop budget and status period in
    seconds. It checks every value, the report bounds included."""

    protocol: str = THEFAME
    seed: int = 0
    rounds: int = 5400
    players: int = 22
    field_length: float = 106.0
    field_width: float = 68.0
    sink_placement: str = CORRECTED
    mobility: MobilityParams = field(default_factory=MobilityParams)
    lactate: LactateParams = field(default_factory=LactateParams)
    thresholds: FatigueThresholds = field(default_factory=FatigueThresholds)
    radio: RadioModel = field(default_factory=RadioModel)
    initial_energy_j: float = 0.025
    channel: ChannelParams = field(default_factory=ChannelParams)
    max_hops: int = 10
    wstm_period_s: int = 10

    def __post_init__(self):
        if self.protocol not in (THEFAME, WSTM):
            raise ValidationError(f"protocol must be thefame or wstm, got {self.protocol!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if type(self.rounds) is not int or self.rounds <= 0:
            raise ValidationError("rounds must be positive")
        if type(self.players) is not int or not 1 <= self.players <= MAX_PLAYERS:
            raise ValidationError(f"players must be in [1, {MAX_PLAYERS}]")
        if not (0 < self.field_length < math.inf and 0 < self.field_width < math.inf):
            raise ValidationError("field dimensions must be in (0, inf)")
        if self.sink_placement not in (CORRECTED, EXTENDED):
            raise ValidationError(
                f"field.sink_placement must be corrected or extended, got {self.sink_placement!r}")
        if not 0 < self.initial_energy_j < math.inf:
            raise ValidationError("energy.initial_j must be in (0, inf)")
        if type(self.max_hops) is not int or self.max_hops < 1:
            raise ValidationError("wstm.max_hops must be at least 1")
        if type(self.wstm_period_s) is not int or self.wstm_period_s <= 0:
            raise ValidationError("wstm.period_s must be positive")
        check_report_bounds(self)

    def build_field(self) -> FieldConfig:
        if self.protocol == WSTM:
            return FieldConfig.goal_sinks(self.field_length, self.field_width)
        return FieldConfig.six_sinks(self.field_length, self.field_width,
                                     extended=self.sink_placement == EXTENDED)

    def with_protocol(self, protocol: str) -> "Scenario":
        return replace(self, protocol=protocol)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


def check_report_bounds(s: Scenario, runs: int = 1) -> None:
    """Raise ValidationError if ``runs`` runs of ``s`` could report inf, sums
    pooled left to right as ``report.summarize`` pools them. Each bound runs
    the model's code on a worst case: the furthest sinks, ``max_hops``
    diagonal hops per player and round, ``players`` full batteries added as
    ``MatchSim.residual_total`` adds them, and lactate at top speed."""
    try:
        FieldConfig.six_sinks(s.field_length, s.field_width, extended=True)
    except ValueError:
        raise ValidationError("field dimensions too large: a sink position overflows") from None
    diagonal = Route((Hop(0, None, 1, math.hypot(s.field_length, s.field_width)),))
    lac = s.lactate
    try:
        delay = s.rounds * s.players * s.max_hops * propagation_delay(
            s.channel, diagonal, s.radio.packet_bits)
        level = MGDL_PER_MMOL_L * (max(lac.l_base, 0.0) + s.rounds * lac.alpha
                                   * max(0.0, s.mobility.v_sprint - lac.v_aerobic))
    except OverflowError:   # an int setting too large for a float
        delay = level = math.inf
    residual = delays = energy = 0.0   # one run's residual; the runs' pooled sums
    for _ in range(s.players):
        residual += s.initial_energy_j
    for _ in range(runs):
        delays += delay
        energy += residual
    for what, value in (("delays", delays), ("energy.initial_j", energy), ("lactate", level)):
        if not value < math.inf:
            raise ValidationError(f"{what} too large: a report of {runs} run(s) overflows")


def finite_float(text: str) -> float:
    """The cast of every float key: like float(), but nan and +-inf are
    rejected too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


# key -> (section dataclass attribute on Scenario or None for top level,
#         field name, cast)
_KEYS = {
    "protocol": (None, "protocol", str),
    "seed": (None, "seed", int),
    "rounds": (None, "rounds", int),
    "players": (None, "players", int),
    "field.length": (None, "field_length", finite_float),
    "field.width": (None, "field_width", finite_float),
    "field.sink_placement": (None, "sink_placement", str),
    "mobility.v_run_min": ("mobility", "v_run_min", finite_float),
    "mobility.v_run_max": ("mobility", "v_run_max", finite_float),
    "mobility.v_sprint": ("mobility", "v_sprint", finite_float),
    "mobility.v_walk": ("mobility", "v_walk", finite_float),
    "mobility.sprint_min_s": ("mobility", "sprint_min_s", int),
    "mobility.sprint_max_s": ("mobility", "sprint_max_s", int),
    "mobility.sprints_per_match": ("mobility", "sprints_per_match", finite_float),
    "mobility.rest_multiple": ("mobility", "rest_multiple", finite_float),
    "mobility.deviation_radius": ("mobility", "deviation_radius", finite_float),
    "mobility.group_speed_kmh": ("mobility", "group_speed_kmh", finite_float),
    "mobility.run_episode_mean_s": ("mobility", "run_episode_mean_s", finite_float),
    "mobility.walk_episode_mean_s": ("mobility", "walk_episode_mean_s", finite_float),
    "lactate.base": ("lactate", "l_base", finite_float),
    "lactate.v_aerobic": ("lactate", "v_aerobic", finite_float),
    "lactate.alpha": ("lactate", "alpha", finite_float),
    "lactate.beta": ("lactate", "beta", finite_float),
    "fatigue.lactate_threshold": ("thresholds", "lactate", finite_float),
    "fatigue.distance_km": ("thresholds", "distance_km", finite_float),
    "fatigue.hysteresis": ("thresholds", "hysteresis", finite_float),
    "radio.e_circuitry": ("radio", "e_circuitry", finite_float),
    "radio.e_amp": ("radio", "e_amp", finite_float),
    "radio.packet_bits": ("radio", "packet_bits", int),
    "radio.form": ("radio", "form", str),
    "energy.initial_j": (None, "initial_energy_j", finite_float),
    "drop_probability": ("channel", "drop_probability", finite_float),
    "data_rate": ("channel", "data_rate_bps", finite_float),
    "per_hop_processing": ("channel", "per_hop_processing_s", finite_float),
    "wstm.max_hops": (None, "max_hops", int),
    "wstm.period_s": (None, "wstm_period_s", int),
}

# section name -> its dataclass, in field order
_SECTION_TYPES = {f.name: f.default_factory for f in fields(Scenario)
                  if f.default_factory is not MISSING}


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    """Build a validated Scenario from flat key=value text."""
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTION_TYPES}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {seen[key]})")
        seen[key] = lineno
        section, attr, cast = _KEYS[key]
        try:
            parsed = cast(value)
        except ValueError:
            raise ParseError(f"{source}:{lineno}: key {key!r} expects "
                             f"{cast.__name__}, got {value!r}") from None
        if section is None:
            top[attr] = parsed
        else:
            sections[section][attr] = parsed

    try:
        for name, cls in _SECTION_TYPES.items():
            if sections[name]:
                top[name] = cls(**sections[name])
        return Scenario(**top)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def parse_scenario(path: str) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_scenario_text(text, source=path)
