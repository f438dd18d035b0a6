"""Round-based simulation loop and the movement-only run built on the
world.

Each round (one second of match time) runs, in order: group reference
and player movement, lactate update, fatigue check, packet triggering,
routing, per-hop channel trials with energy debits, metrics recording.

Accounting is two-level. Hop level: every hop attempt is one send and
ends as either a hop delivery or a drop. Packet level: the trigger
returns origins, sent in that order, and ``MatchSim._send`` alone
decides each packet's fate: delivered (reached a sink), dropped (a hop
lost it), or routing-failed (an origin dead earlier in the round, no
route, or a relay drained by its own receive). ``add_counters`` is the
one walk that adds counters: ``MatchSim.run`` takes a run's tally
(``MatchResult.totals``) with it once, and ``report.summarize`` pools
tallies with it.
A relay's receive cost depends only on the scenario, so ``MatchSim``
computes it once per match. ``MatchSim._debit`` reports the death it
causes, and ``_send`` stops a packet at a relay that its receive killed.

A round is two passes. The world pass (``World.advance``) moves every
player, then steps the squad's lactate and checks its fatigue monitor,
one physiology call each per round. It draws only on the ``mobility``
and ``scheduling`` streams and reads no battery: the human keeps
playing when the node dies, so trajectories and monitor outcomes
depend only on (seed, mobility and physiology parameters), never on
the protocol. The protocol pass (``MatchSim``)
keeps the round's fatigue events of nodes alive at its start, then
triggers, routes, sends and records. Dead nodes stop sensing,
transmitting, relaying and receiving, and never come back, so dropping
a dead node's events gives the events of a monitor consulted only while
the node lives.

A match builds a private world unless it is given one. ``compare``
shares one world per seed between both protocols (common random
numbers): the first match advances it, the second replays the rounds
already played and advances it past them (the first may have stopped
early, once all its nodes died). A match advances its world up to
``WORLD_BLOCK`` rounds at a time, never past the scenario's last round,
so the world pass and the protocol pass each run in long stretches
instead of taking turns every round; the world reads no battery, so
playing ahead changes nothing else. A match that stops early leaves its
world up to ``WORLD_BLOCK - 1`` rounds past its stop. A world keeps
only what a replay reads: each round's fatigue events, and one position
snapshot per round on which a packet can originate (a round with an
event, or a multiple of ``wstm_period_s``): two ``array('d')``s, ``xs``
and ``ys``, by player id. A match routes on these snapshots as they are:
its routers read player ids and the two axes. Recording is the world's too:
a match returns the trajectory and lactate rows of the rounds it played,
taken from the world it ran on, which records them only when built with
``record_trajectory`` or ``record_lactate``.

``MatchSim.alive`` holds the alive players' ids in order. It starts
with every player and loses an id inside the debit that kills its node,
so a node that dies mid-round is out of every later route of that
round. The trigger, the wstm router and ``alive_count`` read this list
instead of rescanning the batteries. The first wstm packet routed on a
snapshot builds a ``NextHops`` over it and this list, which keeps every
holder's route for the later origins; the next snapshot round, or a
death in ``_debit``, drops the table. A round with no snapshot triggers
nothing, so it skips the trigger.

``move_players`` is the one movement loop. ``World.advance`` runs it
before physiology; ``simulate_mobility`` runs it alone (physiology draws
no random number), for calibration and tests, and logs sprint episodes
from each player's ``PlayerKinematics.mode``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

from .channel import propagation_delay, transmit_hop
from .energy import Battery, direct_tx_energy, relay_rx_energy
from .geometry import FieldConfig
from .mobility import (SPRINT, GroupReference, MobilityParams, PlayerKinematics,
                       make_players, schedule_mode, step_group_reference,
                       step_player)
from .physiology import FatigueEvent, FatigueMonitor, step_lactate
from .protocol import (THEFAME, NextHops, thefame_route, trigger_transmissions,
                       wstm_route)
from .scenario import Scenario
from .seeding import stream

# Most rounds a match plays its world ahead at a time. Long world and
# protocol passes beat alternating ones every round; the measured saving
# levels off near 100-200 rounds.
WORLD_BLOCK = 100


@dataclass(slots=True)
class RoundRecord:
    """One round's counters: its round number, the nodes alive at its end,
    per-hop sends and drops, the packets that left their origin, the
    packets received and their summed delay in seconds, routing failures,
    triggered packets, and the residual energy of all batteries in joules
    at its end."""

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


class RunTotals(NamedTuple):
    """One run's tally: its counters summed over its rounds, the round of
    its first death (the stability period; None when no node died) and its
    final residual energy. The counters carry ``RoundRecord``'s names, so
    ``add_counters`` adds tallies as it adds rounds."""
    hop_sends: int
    hop_drops: int
    origin_sends: int
    received: int            # also the number of delays in delay_sum
    routing_failures: int
    triggered: int
    delay_sum: float
    first_death: int | None
    final_residual_j: float


@dataclass(slots=True)
class MetricsLog:
    """One match's log: the initial battery in joules, one ``RoundRecord``
    per round (all-dead rows pad a match that stopped early), each death as
    ``(player_id, round)``, and each player's debits in joules, in the order
    they were applied."""

    initial_energy_j: float
    rounds: list[RoundRecord] = field(default_factory=list)
    deaths: list[tuple[int, int]] = field(default_factory=list)   # (player_id, round)
    debits: dict[int, list[float]] = field(default_factory=dict)  # applied, in order


def add_counters(records) -> tuple:
    """``hop_sends``, ``hop_drops``, ``origin_sends``, ``received``,
    ``routing_failures``, ``triggered`` and ``delay_sum`` of ``records``
    (``RoundRecord``s or ``RunTotals``), each added left to right, so
    every supported Python gives the same bits."""
    sends = drops = origin_sends = received = failures = triggered = 0
    delay_sum = 0.0
    for r in records:
        sends += r.hop_sends
        drops += r.hop_drops
        origin_sends += r.origin_sends
        received += r.received
        failures += r.routing_failures
        triggered += r.triggered
        delay_sum += r.delay_sum
    return sends, drops, origin_sends, received, failures, triggered, delay_sum


class MatchResult(NamedTuple):
    """What one match returns: its scenario, its ``MetricsLog``, the fatigue
    events its alive nodes sensed, its ``RunTotals``, the round at which its
    last node died (None if it played every round), and the trajectory and
    lactate rows of the rounds it played, if its world recorded them."""

    scenario: Scenario
    metrics: MetricsLog
    events: list[FatigueEvent]
    totals: RunTotals
    early_stop_round: int | None = None
    trajectory: Sequence[tuple[int, int, float, float, str]] = ()
    lactate_trace: Sequence[tuple[int, int, float]] = ()


class World:
    """The protocol-independent part of a match, one round at a time.

    It owns the group reference, the players' kinematics on the
    ``mobility`` and ``scheduling`` streams, every player's lactate level,
    the squad's one ``FatigueMonitor``, and the trajectory/lactate
    recording. ``advance`` plays one round: movement, then one
    ``step_lactate`` over the squad and one ``monitor.check``, whatever
    the state of any player's battery.

    For each round on which a packet can originate (one with a fatigue
    event, or a multiple of ``wstm_period_s``) the world keeps the
    round's events and two ``array('d')``s, ``xs`` and ``ys``, of the
    players' positions by player id. Any number of matches can run on
    it: a match replays the rounds the world has played and advances it
    past them, a block of up to ``WORLD_BLOCK`` rounds at a time, so the
    world may be rounds ahead of the match on it.
    """

    def __init__(self, scenario: Scenario, record_trajectory: bool = False,
                 record_lactate: bool = False):
        self.scenario = scenario
        self.field = FieldConfig(scenario.field_length, scenario.field_width)
        self.mob_rng = stream(scenario.seed, "mobility")
        self.sched_rng = stream(scenario.seed, "scheduling")
        self.group = GroupReference.centered(self.field)
        self.kins = make_players(scenario.players, self.field)
        self.lactate = [scenario.lactate.l_base] * len(self.kins)
        self.monitor = FatigueMonitor(scenario.thresholds, self.kins)
        self.round = 0
        # round -> (its fatigue events, xs, ys), positions by player id
        self.history: dict[int, tuple[list[FatigueEvent], array, array]] = {}
        self.record_trajectory = record_trajectory
        self.record_lactate = record_lactate
        # CSV-ordered rows: (player_id, round, x, y, mode), (player_id, round, mmol/L)
        self.trajectory: list[tuple[int, int, float, float, str]] = []
        self.lactate_trace: list[tuple[int, int, float]] = []

    def check_serves(self, scenario: Scenario) -> None:
        """Raise ValueError unless ``scenario`` equals this world's own up
        to ``protocol``."""
        own = self.scenario
        if any(getattr(scenario, f.name) != getattr(own, f.name)
               for f in fields(Scenario) if f.name != "protocol"):
            raise ValueError("a world serves only scenarios that equal its own "
                             "up to protocol")

    def advance(self) -> None:
        """Play the next round; ``history`` keeps its fatigue events."""
        self.round += 1
        t = self.round
        kins = self.kins
        move_players(self.group, kins, self.field, self.scenario.mobility, self.mob_rng,
                     self.sched_rng)
        lactate = self.lactate
        step_lactate(lactate, kins, self.scenario.lactate)
        events = self.monitor.check(lactate, kins, t)
        if self.record_trajectory:
            self.trajectory.extend((k.player_id, t, k.x, k.y, k.mode) for k in kins)
        if self.record_lactate:
            self.lactate_trace.extend((k.player_id, t, level)
                                      for k, level in zip(kins, lactate))
        if events is not None or t % self.scenario.wstm_period_s == 0:
            self.history[t] = (events or [], array("d", [k.x for k in kins]),
                               array("d", [k.y for k in kins]))


class MatchSim:
    """Single-threaded, deterministic simulation of one match: the
    protocol pass over a world, private unless one is given. When a round
    is past the world's, ``run_round`` first plays the world up to
    ``WORLD_BLOCK`` rounds ahead, never past ``scenario.rounds``; ``run``
    returns only the recorded rows of the rounds the match played."""

    def __init__(self, scenario: Scenario, world: World | None = None):
        if world is None:
            world = World(scenario)
        else:
            world.check_serves(scenario)
        self.scenario = scenario
        self.world = world
        self.field = scenario.build_field()
        self.chan_rng = stream(scenario.seed, "channel")
        self.relay_rx_j = relay_rx_energy(scenario.radio, scenario.radio.packet_bits)
        players = range(scenario.players)   # player ids
        self.batteries = [Battery(scenario.initial_energy_j) for _ in players]
        self.metrics = MetricsLog(
            initial_energy_j=scenario.initial_energy_j,
            debits={pid: [] for pid in players},
        )
        # ids of the alive players in order; _debit drops a node the moment
        # a debit kills it
        self.alive = list(players)
        self.events: list[FatigueEvent] = []
        self._round = 0
        self._residual: float | None = None   # residual_total(); _debit clears it
        self._hops: NextHops | None = None    # wstm routes of this round's snapshot

    def alive_count(self) -> int:
        return len(self.alive)

    def residual_total(self) -> float:
        if self._residual is None:
            # left to right (sum() compensates since 3.12); Battery.residual inline
            total = 0.0
            for b in self.batteries:
                total += b.initial - b.consumed
            self._residual = total
        return self._residual

    def run_round(self) -> RoundRecord:
        self._round += 1
        t = self._round
        rec = RoundRecord(t, 0)   # round, alive

        world = self.world
        if t > world.round:
            for _ in range(min(WORLD_BLOCK, self.scenario.rounds - world.round)):
                world.advance()
        kept = world.history.get(t)
        if kept is not None:   # else no packet can originate this round
            events, xs, ys = kept   # the world's own positions may be rounds ahead
            if events:
                if self.metrics.deaths:
                    # nodes dead at the start of this pass sense nothing
                    batteries = self.batteries
                    events = [ev for ev in events if not batteries[ev.player_id].dead]
                self.events.extend(events)
            origins = trigger_transmissions(self.scenario.protocol,
                                            self.scenario.wstm_period_s, t, events,
                                            self.alive)
            rec.triggered = len(origins)
            self._hops = None
            for origin in origins:
                self._send(origin, xs, ys, rec)

        rec.alive = self.alive_count()
        rec.residual_j = self.residual_total()
        self.metrics.rounds.append(rec)
        return rec

    def _send(self, origin: int, xs: array, ys: array, rec: RoundRecord) -> None:
        if self.batteries[origin].dead:   # died relaying earlier traffic this round
            route = None
        elif self.scenario.protocol == THEFAME:
            route = thefame_route(origin, xs, ys, self.field)
        else:
            if self._hops is None:
                self._hops = NextHops(self.alive, xs, ys, self.field)
            route = wstm_route(origin, self._hops, self.scenario.max_hops)
        if route is not None:
            radio, channel, chan_rng = self.scenario.radio, self.scenario.channel, self.chan_rng
            bits, t = radio.packet_bits, rec.round
            rec.origin_sends += 1
            for hop in route.hops:
                self._debit(hop.src, direct_tx_energy(radio, bits, hop.dist), t)
                rec.hop_sends += 1
                if not transmit_hop(channel, chan_rng):
                    rec.hop_drops += 1
                    return
                if hop.dst_player is None:
                    rec.received += 1
                    rec.delay_sum += propagation_delay(channel, route, bits)
                    return
                # alive: routed over self.alive, and sink distance strictly falls per hop
                if self._debit(hop.dst_player, self.relay_rx_j, t):
                    break   # drained by the receive: it cannot forward
        rec.routing_failures += 1

    def _debit(self, player_id: int, amount: float, t: int) -> bool:
        """Debit an alive node; True when this debit killed it. _send
        debits only alive nodes, so a dead battery afterwards means this
        debit killed it."""
        battery = self.batteries[player_id]
        self.metrics.debits[player_id].append(battery.debit(amount))
        self._residual = None
        if battery.dead:
            self.metrics.deaths.append((player_id, t))
            self.alive.remove(player_id)
            self._hops = None
            return True
        return False

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
                self.metrics.rounds.append(RoundRecord(t, 0))
        m = self.metrics
        rows = self.scenario.players * (early_stop or self.scenario.rounds)
        return MatchResult(
            scenario=self.scenario, metrics=m, events=self.events,
            totals=RunTotals(*add_counters(m.rounds), m.deaths[0][1] if m.deaths else None,
                             m.rounds[-1].residual_j),
            early_stop_round=early_stop,
            trajectory=self.world.trajectory[:rows],   # the rounds it played
            lactate_trace=self.world.lactate_trace[:rows],
        )


def run_match(scenario: Scenario, world: World | None = None) -> MatchResult:
    """Simulate one full match for one protocol, on ``world`` if given."""
    return MatchSim(scenario, world).run()


def move_players(group: GroupReference, players: list[PlayerKinematics],
                 field: FieldConfig, params: MobilityParams,
                 mob_rng: random.Random,
                 sched_rng: random.Random) -> None:
    """Advance the group reference, then schedule and move every player,
    by one second. Each player's mode for the step is its ``mode``.

    Only the ``mobility`` and ``scheduling`` streams are drawn from, and
    physiology draws nothing, so a caller that runs physiology after this
    keeps every RNG sequence of a per-player interleaving.
    """
    step_group_reference(group, field, params, mob_rng)
    for kin in players:
        schedule_mode(kin, params, sched_rng)
        step_player(kin, group, field, params, mob_rng)


class SprintEpisode(NamedTuple):
    """A value record: one player's unbroken run of sprinting seconds."""
    player_id: int
    start: int          # round of the first sprinting second
    duration: int       # seconds spent sprinting
    truncated: bool = False   # cut off by the end of the run


class MobilityRun(NamedTuple):
    """A value record: a world's players after its last round, and every
    sprint episode it played, in the order they ended."""
    players: list[PlayerKinematics]
    sprints: list[SprintEpisode]


def simulate_mobility(scenario: Scenario) -> MobilityRun:
    """Move the players of the world of ``scenario``, with no physiology
    and no match, and log their sprint episodes; for calibration and tests."""
    world = World(scenario)
    open_since: dict[int, int] = {}
    sprints: list[SprintEpisode] = []
    for t in range(1, scenario.rounds + 1):
        move_players(world.group, world.kins, world.field, scenario.mobility, world.mob_rng,
                     world.sched_rng)
        for k in world.kins:
            was_sprinting = k.player_id in open_since
            if k.mode == SPRINT and not was_sprinting:
                open_since[k.player_id] = t
            elif k.mode != SPRINT and was_sprinting:
                start = open_since.pop(k.player_id)
                sprints.append(SprintEpisode(k.player_id, start, t - start))
    for pid, start in sorted(open_since.items()):
        sprints.append(SprintEpisode(pid, start, scenario.rounds + 1 - start,
                                     truncated=True))
    return MobilityRun(world.kins, sprints)
