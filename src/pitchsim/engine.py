"""Round-based simulation loop, the sink-side aggregation unit, and the
movement-only run built on the loop.

Each round (one second of match time) runs, in order: group reference
and player movement, lactate update, fatigue check, packet triggering,
routing, per-hop channel trials with energy debits, metrics recording.

Accounting is two-level. Hop level: every hop attempt is one send and
ends as either a hop delivery or a drop. Packet level: every triggered
packet ends in exactly one of delivered (reached a sink), dropped (a
hop lost it), or routing-failed (no route, or a node on the route was
already dead when its turn came).

The human keeps playing when the node battery dies: movement and
physiology advance for every player each round, so trajectories depend
only on (seed, mobility parameters) and never on the protocol. Dead
nodes stop sensing, transmitting, relaying, and receiving.

``MatchSim.alive`` holds the alive players' kinematics in player-id
order. It starts with every player and loses a player inside the debit
that kills its node, so a node that dies mid-round is out of every
later route of that round. The trigger, the wstm router and
``alive_count`` read this list instead of rescanning the batteries.

``move_players`` is the one movement loop: ``MatchSim`` runs it every
round, and ``simulate_mobility`` runs it alone for calibration and
tests, on the same RNG streams, so both give the same trajectories.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .channel import propagation_delay, transmit_hop
from .energy import Battery, direct_tx_energy, relay_rx_energy
from .geometry import FieldConfig
from .mobility import (GroupReference, MobilityParams, PlayerKinematics,
                       SpeedMode, make_players, schedule_mode,
                       step_group_reference, step_player)
from .physiology import FatigueEvent, FatigueMonitor, step_lactate
from .protocol import (THEFAME, Packet, Route, thefame_route,
                       trigger_transmissions, wstm_route)
from .scenario import Scenario
from .seeding import stream

NO_DEATH = None

_DELIVERED = "delivered"
_DROPPED = "dropped"
_FAILED = "failed"


@dataclass(slots=True)
class RoundRecord:
    round: int
    alive: int
    hop_sends: int = 0
    hop_drops: int = 0
    origin_sends: int = 0
    received: int = 0
    routing_failures: int = 0
    triggered: int = 0
    residual_j: float = 0.0
    delay_sum: float = 0.0
    delay_count: int = 0


@dataclass(frozen=True)
class Delivery:
    """One packet landing at a sink."""
    time: float          # created_at + end-to-end delay
    packet_id: int
    sink_id: int
    origin: int
    round: int
    delay: float


@dataclass
class MetricsLog:
    initial_energy_j: float
    rounds: list[RoundRecord] = field(default_factory=list)
    deaths: list[tuple[int, int]] = field(default_factory=list)   # (player_id, round)
    debits: dict[int, list[float]] = field(default_factory=dict)  # applied, in order

    def total(self, name: str) -> int:
        return sum(getattr(r, name) for r in self.rounds)

    @property
    def total_delay_sum(self) -> float:
        return sum(r.delay_sum for r in self.rounds)

    @property
    def total_delay_count(self) -> int:
        return sum(r.delay_count for r in self.rounds)

    def mean_delay(self) -> float | None:
        n = self.total_delay_count
        return self.total_delay_sum / n if n else None


def stability_period(log: MetricsLog) -> int | None:
    """Round of the first node death, or NO_DEATH when none died."""
    return log.deaths[0][1] if log.deaths else NO_DEATH


@dataclass
class MatchResult:
    scenario: Scenario
    metrics: MetricsLog
    feed: list[Delivery]
    events: list[FatigueEvent]
    early_stop_round: int | None = None
    trajectory: list[tuple[int, int, float, float, str]] = field(default_factory=list)
    lactate_trace: list[tuple[int, int, float]] = field(default_factory=list)


class _Node:
    __slots__ = ("kin", "battery", "monitor", "lactate")

    def __init__(self, kin: PlayerKinematics, battery: Battery,
                 monitor: FatigueMonitor, lactate: float):
        self.kin = kin
        self.battery = battery
        self.monitor = monitor
        self.lactate = lactate


class MatchSim:
    """Single-threaded, deterministic simulation of one match."""

    def __init__(self, scenario: Scenario, record_trajectory: bool = False,
                 record_lactate: bool = False):
        self.scenario = scenario
        self.field = scenario.build_field()
        self.radio = scenario.radio
        self.channel = scenario.channel
        self.mobility = scenario.mobility
        self.lactate_params = scenario.lactate
        self.mob_rng = stream(scenario.seed, "mobility")
        self.sched_rng = stream(scenario.seed, "scheduling")
        self.chan_rng = stream(scenario.seed, "channel")
        self.group = GroupReference.centered(self.field)
        self.nodes = [
            _Node(kin, Battery(scenario.initial_energy_j),
                  FatigueMonitor(scenario.thresholds), scenario.lactate.l_base)
            for kin in make_players(scenario.players, self.field)
        ]
        self.metrics = MetricsLog(
            initial_energy_j=scenario.initial_energy_j,
            debits={n.kin.player_id: [] for n in self.nodes},
        )
        self.kins = [n.kin for n in self.nodes]
        # kinematics of the alive players in player-id order; _debit drops a
        # node the moment a debit kills it
        self.alive = list(self.kins)
        self.events: list[FatigueEvent] = []
        self.feed: list[Delivery] = []
        self._ids = itertools.count(1)
        self._round = 0
        self._record_trajectory = record_trajectory
        self._record_lactate = record_lactate
        self.trajectory: list[tuple[int, int, float, float, str]] = []
        self.lactate_trace: list[tuple[int, int, float]] = []

    def alive_count(self) -> int:
        return len(self.alive)

    def residual_total(self) -> float:
        return sum(n.battery.residual for n in self.nodes)

    def run_round(self) -> RoundRecord:
        self._round += 1
        t = self._round
        rec = RoundRecord(round=t, alive=0)

        modes = move_players(self.group, self.kins, self.field, self.mobility,
                             self.mob_rng, self.sched_rng)
        events_now: list[FatigueEvent] = []
        for node, mode in zip(self.nodes, modes):
            kin = node.kin
            node.lactate = step_lactate(node.lactate, kin.speed_kmh,
                                        self.lactate_params, 1.0)
            if self._record_trajectory:
                self.trajectory.append((t, kin.player_id, kin.x, kin.y, mode.value))
            if self._record_lactate:
                self.lactate_trace.append((t, kin.player_id, node.lactate))
            if not node.battery.dead:
                ev = node.monitor.check(node.lactate, kin.cumulative_km, t,
                                        kin.player_id)
                if ev is not None:
                    events_now.append(ev)
                    self.events.append(ev)

        packets = trigger_transmissions(self.scenario.protocol,
                                        self.scenario.wstm_period_s, t, events_now,
                                        self.alive, self.radio.packet_bits, self._ids)
        rec.triggered = len(packets)
        for packet in packets:
            route = self._route(packet)
            if route is None:
                rec.routing_failures += 1
                continue
            self._send(packet, route, rec)

        rec.alive = self.alive_count()
        rec.residual_j = self.residual_total()
        self.metrics.rounds.append(rec)
        return rec

    def _route(self, packet: Packet) -> Route | None:
        origin = self.nodes[packet.origin]
        if origin.battery.dead:
            # node died relaying earlier traffic this round
            return None
        if self.scenario.protocol == THEFAME:
            return thefame_route(origin.kin, self.field)
        return wstm_route(origin.kin, self.alive, self.field, self.scenario.max_hops)

    def _send(self, packet: Packet, route: Route, rec: RoundRecord) -> None:
        outcome = _FAILED
        for i, hop in enumerate(route.hops):
            sender = self.nodes[hop.src]
            if sender.battery.dead:
                break
            self._debit(sender, direct_tx_energy(self.radio, packet.size_bits,
                                                 hop.dist), rec.round)
            rec.hop_sends += 1
            if i == 0:
                rec.origin_sends += 1
            if not transmit_hop(self.channel, self.chan_rng):
                rec.hop_drops += 1
                outcome = _DROPPED
                break
            if hop.dst_player is not None:
                relay = self.nodes[hop.dst_player]
                if relay.battery.dead:
                    break
                self._debit(relay, relay_rx_energy(self.radio, packet.size_bits),
                            rec.round)
                # a relay drained to zero by the receive cannot forward;
                # the dead-sender check above ends the route next hop
            else:
                delay = propagation_delay(self.channel, route, packet.size_bits)
                self.feed.append(Delivery(
                    time=packet.created_at + delay, packet_id=packet.packet_id,
                    sink_id=hop.dst_sink, origin=packet.origin,
                    round=rec.round, delay=delay))
                rec.received += 1
                rec.delay_sum += delay
                rec.delay_count += 1
                outcome = _DELIVERED
                break
        if outcome == _FAILED:
            rec.routing_failures += 1

    def _debit(self, node: _Node, amount: float, t: int) -> None:
        was_dead = node.battery.dead
        applied = node.battery.debit(amount)
        self.metrics.debits[node.kin.player_id].append(applied)
        if node.battery.dead and not was_dead:
            self.metrics.deaths.append((node.kin.player_id, t))
            self.alive.remove(node.kin)

    def run(self) -> MatchResult:
        early_stop = None
        for _ in range(self.scenario.rounds):
            rec = self.run_round()
            if rec.alive == 0:
                early_stop = rec.round
                break
        if early_stop is not None:
            # keep the round axis comparable: pad the log with all-dead rows
            for t in range(early_stop + 1, self.scenario.rounds + 1):
                self.metrics.rounds.append(RoundRecord(round=t, alive=0,
                                                       residual_j=0.0))
        return MatchResult(
            scenario=self.scenario,
            metrics=self.metrics,
            feed=aggregate(self.feed),
            events=self.events,
            early_stop_round=early_stop,
            trajectory=self.trajectory,
            lactate_trace=self.lactate_trace,
        )


def run_match(scenario: Scenario, record_trajectory: bool = False,
              record_lactate: bool = False) -> MatchResult:
    """Simulate one full match for one protocol."""
    sim = MatchSim(scenario, record_trajectory=record_trajectory,
                   record_lactate=record_lactate)
    return sim.run()


def aggregate(deliveries: list[Delivery]) -> list[Delivery]:
    """The sink-side aggregation unit: one feed over every sink, ordered
    by delivery time, ties by packet id.

    Deliveries arrive in packet order; within a round arrival times differ
    by hop count. Packet ids are unique, so the key is a total order.
    """
    return sorted(deliveries, key=lambda d: (d.time, d.packet_id))


def move_players(group: GroupReference, players: list[PlayerKinematics],
                 field: FieldConfig, params: MobilityParams,
                 mob_rng: random.Random,
                 sched_rng: random.Random) -> list[SpeedMode]:
    """Advance the group reference, then schedule and move every player,
    by one second. Returns each player's mode for the step.

    Only the ``mobility`` and ``scheduling`` streams are drawn from, and
    physiology draws nothing, so a caller that runs physiology after this
    keeps every RNG sequence of a per-player interleaving.
    """
    ref = step_group_reference(group, field, params, 1.0, mob_rng)
    modes = []
    for kin in players:
        modes.append(schedule_mode(kin, params, 1.0, sched_rng))
        step_player(kin, ref, field, params, 1.0, mob_rng)
    return modes


@dataclass(frozen=True)
class SprintEpisode:
    player_id: int
    start: int          # round of the first sprinting second
    duration: int       # seconds spent sprinting
    truncated: bool = False   # cut off by the end of the run


@dataclass
class MobilityRun:
    players: list[PlayerKinematics]
    sprints: list[SprintEpisode]


def simulate_mobility(params: MobilityParams, field: FieldConfig, n_players: int,
                      rounds: int, seed: int) -> MobilityRun:
    """Run the movement subsystem alone; used for calibration and tests.

    It runs the engine's movement loop on the engine's RNG streams, so
    trajectories agree with protocol runs at the same seed.
    """
    mob = stream(seed, "mobility")
    sched = stream(seed, "scheduling")
    players = make_players(n_players, field)
    group = GroupReference.centered(field)
    open_since: dict[int, int] = {}
    sprints: list[SprintEpisode] = []
    for t in range(1, rounds + 1):
        modes = move_players(group, players, field, params, mob, sched)
        for k, mode in zip(players, modes):
            was_sprinting = k.player_id in open_since
            if mode is SpeedMode.SPRINT and not was_sprinting:
                open_since[k.player_id] = t
            elif mode is not SpeedMode.SPRINT and was_sprinting:
                start = open_since.pop(k.player_id)
                sprints.append(SprintEpisode(k.player_id, start, t - start))
    for pid, start in sorted(open_since.items()):
        sprints.append(SprintEpisode(pid, start, rounds + 1 - start, truncated=True))
    return MobilityRun(players, sprints)
