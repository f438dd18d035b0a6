from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from pitchsim import engine
from pitchsim.channel import ChannelParams
from pitchsim.energy import Battery, RadioModel, direct_tx_energy
from pitchsim.engine import (Delivery, MatchSim, RoundRecord, World, aggregate,
                             run_match, simulate_mobility)
from pitchsim.geometry import nearest_sink_xy
from pitchsim.mobility import MobilityParams
from pitchsim.physiology import FatigueThresholds, LactateParams
from pitchsim.scenario import Scenario, parse_scenario
from test_acceptance import assert_conserved
from test_protocol import Player, _bits, _per_call_wstm_route


def small(protocol="thefame", **kwargs):
    defaults = dict(protocol=protocol, rounds=300, seed=1)
    defaults.update(kwargs)
    return Scenario(**defaults)


def stress(**kwargs):
    """High event rate: lactate spikes past a low trigger on every sprint."""
    defaults = dict(
        lactate=LactateParams(alpha=0.05, beta=0.5),
        thresholds=FatigueThresholds(lactate=1.2),
    )
    defaults.update(kwargs)
    return small(**defaults)


def test_channel_settings_do_not_perturb_trajectories():
    # per-subsystem RNG streams: toggling the channel must leave movement alone
    def recorded(scenario):
        return run_match(scenario, world=World(scenario, record_trajectory=True))
    lossy = recorded(stress(rounds=300))
    ideal = recorded(stress(rounds=300, channel=ChannelParams(drop_probability=0.0)))
    assert lossy.trajectory == ideal.trajectory
    assert lossy.totals.hop_drops > 0
    assert ideal.totals.hop_drops == 0


def test_rerun_is_bitwise_identical():
    a = run_match(stress(rounds=400))
    b = run_match(stress(rounds=400))
    assert a.metrics.rounds == b.metrics.rounds
    assert a.metrics.deaths == b.metrics.deaths
    assert a.metrics.debits == b.metrics.debits
    assert a.feed == b.feed
    assert a.events == b.events


def test_round_without_packets_leaves_energy_unchanged():
    result = run_match(small(rounds=120))  # defaults trigger nothing this early
    first = result.metrics.rounds[0]
    assert result.totals.triggered == 0
    for rec in result.metrics.rounds:
        assert rec.residual_j == first.residual_j
        assert rec.hop_sends == 0


def test_single_event_debits_exactly_one_battery_by_direct_tx_amount():
    # a tiny distance threshold forces one event per player early on
    scenario = small(rounds=40, thresholds=FatigueThresholds(distance_km=0.01),
                     players=2, initial_energy_j=5.0,
                     channel=ChannelParams(drop_probability=0.0))
    sim = MatchSim(scenario)
    rec = sim.run_round()
    while rec.triggered == 0:
        rec = sim.run_round()
    fired = {ev.player_id for ev in sim.events if ev.time == rec.round}
    assert fired
    debited = {pid: lst for pid, lst in sim.metrics.debits.items() if lst}
    assert set(debited) == fired
    radio = scenario.radio
    field = sim.field
    _, xs, ys = sim.world.history[rec.round]  # routing read this round's snapshot
    for pid in fired:
        _, dist, _ = nearest_sink_xy(xs[pid], ys[pid], field)
        expected = direct_tx_energy(radio, radio.packet_bits, dist)
        assert debited[pid] == [expected]


def test_packet_conservation_both_protocols():
    # at 0.002 J a relay's receive can kill it, which ends the packet's
    # route at that relay
    for scenario in (stress(rounds=600), small("wstm", rounds=600),
                     small("wstm", rounds=300, initial_energy_j=0.002)):
        assert_conserved(run_match(scenario))


def test_alive_count_monotone_and_dead_stay_dead():
    m = run_match(small("wstm", rounds=400)).metrics
    alive = [rec.alive for rec in m.rounds]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    assert m.deaths  # default battery is small enough for wstm deaths
    rounds_of_death = [r for _, r in m.deaths]
    assert rounds_of_death == sorted(rounds_of_death)


def test_residual_non_increasing_and_replay_exact():
    result = run_match(small("wstm", rounds=500))
    m = result.metrics
    res = [rec.residual_j for rec in m.rounds]
    assert all(a >= b for a, b in zip(res, res[1:]))
    # replaying every node's debit log reproduces its final residual exactly
    assert_conserved(result)


def test_lossless_channel_delivers_every_sent_packet():
    scenario = stress(rounds=500, channel=ChannelParams(drop_probability=0.0),
                      initial_energy_j=50.0)
    result = run_match(scenario)
    m = result.metrics
    assert result.totals.triggered > 0
    for rec in m.rounds:
        assert rec.received == rec.origin_sends
        assert rec.hop_drops == 0


def test_one_round_no_triggers_single_zero_row():
    m = run_match(small(rounds=1)).metrics
    assert len(m.rounds) == 1
    rec = m.rounds[0]
    assert (rec.triggered, rec.hop_sends, rec.received) == (0, 0, 0)
    assert rec.alive == 22


COUNTERS = ("hop_sends", "hop_drops", "origin_sends", "received",
            "routing_failures", "triggered", "delay_sum")


@pytest.mark.parametrize("scenario, dies", [
    (Scenario(protocol="wstm"), True),   # every node dies; all-dead rows padded
    (small("wstm", rounds=400, initial_energy_j=1000.0), False),
], ids=["deaths", "no-deaths"])
def test_totals_equal_per_round_sums(scenario, dies):
    result = run_match(scenario)
    log = result.metrics
    assert bool(log.deaths) == dies
    assert (log.rounds[-1].alive == 0) == dies
    if dies:   # the padding is positional, and equal to the all-dead row
        stop = result.early_stop_round
        assert stop < scenario.rounds
        assert log.rounds[stop:] == [RoundRecord(t, 0)
                                     for t in range(stop + 1, scenario.rounds + 1)]
    totals = result.totals
    for name in COUNTERS:
        expected = 0   # added in round order, the order add_counters documents
        for r in log.rounds:
            expected += getattr(r, name)
        assert getattr(totals, name) == expected, name
    assert totals.received > 0 and totals.routing_failures > 0
    # the first death logged, which is the earliest: deaths are logged in order
    assert totals.first_death == (log.deaths[0][1] if dies else None)
    assert totals.final_residual_j == log.rounds[-1].residual_j


def test_early_stop_pads_all_dead_rows():
    scenario = small("wstm", rounds=2000, initial_energy_j=0.002)
    result = run_match(scenario)
    assert result.early_stop_round is not None
    assert len(result.metrics.rounds) == 2000
    tail = result.metrics.rounds[result.early_stop_round:]
    assert all(rec.alive == 0 and rec.residual_j == 0.0 for rec in tail)


def d(time, pid, sink=1):
    return Delivery(time=time, packet_id=pid, sink_id=sink, origin=0, round=1,
                    delay=0.0)


def test_aggregate_single_sink_identity():
    feed = [d(1.0, 1), d(2.0, 2)]
    assert aggregate(feed) == feed


def test_aggregate_interleaves_sorted_streams():
    a = [d(1.0, 1), d(3.0, 3)]
    b = [d(2.0, 2, sink=2), d(4.0, 4, sink=2)]
    merged = aggregate(a + b)
    assert [x.packet_id for x in merged] == [1, 2, 3, 4]


def test_aggregate_ties_by_packet_id():
    a = [d(1.0, 7)]
    b = [d(1.0, 2, sink=2)]
    merged = aggregate(a + b)
    assert [x.packet_id for x in merged] == [2, 7]


def test_aggregate_conserves_length():
    a = [d(float(i), i) for i in range(5)]
    b = [d(float(i) + 0.5, 100 + i, sink=2) for i in range(7)]
    assert len(aggregate(a + b)) == 12


def test_feed_is_time_ordered_in_real_runs():
    result = run_match(small("wstm", rounds=400, initial_energy_j=5.0))
    feed = result.feed
    # one feed over every sink, one entry per delivered packet
    assert {x.sink_id for x in feed} == {1, 2}
    assert len(feed) == result.totals.received
    assert len({x.packet_id for x in feed}) == len(feed)
    keys = [(x.time, x.packet_id) for x in feed]
    assert keys == sorted(keys)


@pytest.mark.parametrize("scenario", [small("wstm", initial_energy_j=0.002), stress()],
                         ids=["wstm-0.002j", "thefame-stress"])
def test_packet_ids_number_every_triggered_packet(scenario):
    # wstm at 0.002 J fails packets of dead origins, of drained relays and
    # of greedy dead ends; each one still takes its number, so a delivered
    # id lies among the ids triggered in the delivery's own round
    result = run_match(scenario)
    rounds = result.metrics.rounds
    before = [0]         # before[t - 1]: packets triggered before round t
    for rec in rounds:
        before.append(before[-1] + rec.triggered)
    ids = [x.packet_id for x in result.feed]
    assert ids and len(set(ids)) == len(ids)
    for x in result.feed:
        assert before[x.round - 1] < x.packet_id <= before[x.round]
    if scenario.protocol == "wstm":
        # failures precede some delivery, so numbering only routed packets
        # would shift that delivery's id below its round's range
        first_failure = next(r.round for r in rounds if r.routing_failures)
        assert any(x.round > first_failure for x in result.feed)


def test_simulate_mobility_ends_where_the_match_does():
    scenario = small("wstm", rounds=300, initial_energy_j=1000.0)
    sim = MatchSim(scenario, World(scenario, record_trajectory=True))
    result = sim.run()
    assert not result.metrics.deaths
    last = {pid: (x, y) for pid, t, x, y, _ in result.trajectory
            if t == scenario.rounds}
    # the world moves the players; the match routes on its snapshots
    match_end = [(*last[k.player_id], k.cumulative_km) for k in sim.world.kins]
    alone = simulate_mobility(scenario)
    assert [(k.x, k.y, k.cumulative_km) for k in alone.players] == match_end


def test_dead_nodes_never_route_or_transmit():
    result = run_match(small("wstm", rounds=600))
    m = result.metrics
    dead_round = dict(m.deaths)
    # after a node's death round, it must never pay another debit;
    # replay debit counts against a fresh battery to find the death index
    for pid, debits in m.debits.items():
        b = Battery(m.initial_energy_j)
        for amount in debits:
            assert not b.dead, f"node {pid} was debited after dying"
            b.debit(amount)


def test_alive_list_equals_a_fresh_recount_every_round():
    # default wstm, seed 0: first death at round 10, last at round 180
    sim = MatchSim(Scenario(protocol="wstm"))
    died_in = set()
    for _ in range(200):
        before = len(sim.metrics.deaths)
        rec = sim.run_round()
        if len(sim.metrics.deaths) > before:
            died_in.add(rec.round)
        recount = [pid for pid, b in enumerate(sim.batteries) if not b.dead]
        assert sim.alive_count() == len(recount)
        assert len(sim.alive) == len(recount)
        assert sim.alive == recount
    assert min(died_in) == 10
    assert sim.alive == []


def test_debit_reports_each_death_it_causes():
    # default wstm, seed 0: every node dies, relays among them
    sim = MatchSim(Scenario(protocol="wstm"))
    debit, killed = sim._debit, []

    def watched(player_id, amount, t):
        died = debit(player_id, amount, t)
        assert died == (player_id not in sim.alive)
        if died:
            killed.append((player_id, t))
        return died

    sim._debit = watched
    for _ in range(sim.scenario.rounds):   # bounded: a broken engine may never kill all
        if not sim.run_round().alive:
            break
    assert killed == sim.metrics.deaths
    assert len(killed) == len(sim.batteries)


@pytest.mark.parametrize("energy_j", [0.025, 0.002])
def test_wstm_routes_equal_a_fresh_route_over_the_alive_set(energy_j, monkeypatch):
    # nodes die inside sending rounds, relays among them, so a next-hop
    # table kept past a death would route later packets over a dead node
    sim = MatchSim(small("wstm", initial_energy_j=energy_j))
    trigger, route = engine.trigger_transmissions, engine.wstm_route
    pending = []         # origins of this round's packets not yet routed
    deaths_before_round = calls_after_a_death = 0

    def skip_dead_origins():
        # no send happens between a skipped packet's turn and this check
        while pending and sim.batteries[pending[0]].dead:
            pending.pop(0)

    def triggered(*args):
        origins = trigger(*args)
        pending[:] = origins
        return origins

    def checked(origin, table, max_hops):
        nonlocal calls_after_a_death
        skip_dead_origins()
        assert pending.pop(0) == origin
        calls_after_a_death += len(sim.metrics.deaths) > deaths_before_round
        _, xs, ys = sim.world.history[sim._round]
        alive = [Player(pid, xs[pid], ys[pid]) for pid in sim.alive]
        want = _per_call_wstm_route(Player(origin, xs[origin], ys[origin]), alive,
                                    sim.field, max_hops)
        got = route(origin, table, max_hops)
        assert _bits(got) == _bits(want)
        return got

    monkeypatch.setattr(engine, "trigger_transmissions", triggered)
    monkeypatch.setattr(engine, "wstm_route", checked)
    for _ in range(sim.scenario.rounds):
        deaths_before_round = len(sim.metrics.deaths)
        sim.run_round()
        skip_dead_origins()
        assert pending == []
        if sim.alive_count() == 0:
            break
    assert calls_after_a_death > 0


@pytest.mark.parametrize("protocol", ["wstm", "thefame"])
def test_residual_total_equals_a_fresh_sum_every_round(protocol):
    # default scenario, seed 0: wstm loses every node by round 180, thefame
    # debits on 16 of its 5400 rounds; residual_total re-sums only after a debit
    sim = MatchSim(Scenario(protocol=protocol))
    debit_rounds = 0
    for _ in range(sim.scenario.rounds):
        debits_before = sum(map(len, sim.metrics.debits.values()))
        rec = sim.run_round()
        debit_rounds += sum(map(len, sim.metrics.debits.values())) > debits_before
        fresh = 0.0
        for b in sim.batteries:
            fresh += b.residual
        assert rec.residual_j == fresh
        if rec.alive == 0:
            break
    if protocol == "wstm":
        assert sim.alive == [] and rec.residual_j == 0.0
    else:
        assert debit_rounds == 16 and rec.round == 5400


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _shared_world_cases():
    default = replace(parse_scenario(str(SCENARIOS / "default.cfg")), rounds=400)
    high = replace(parse_scenario(str(SCENARIOS / "high-rate.cfg")), rounds=600)
    return {
        # wstm loses every node by round 180 and stops early; thefame plays on
        "default": default,
        # thousands of fatigue events, no deaths
        "high-rate": high,
        # mid-match deaths in both protocols, so the monitors of dead nodes
        # keep firing and each protocol must drop those events itself
        "high-rate-0.5j": replace(high, initial_energy_j=0.5),
    }


@pytest.mark.parametrize("case", sorted(_shared_world_cases()))
@pytest.mark.parametrize("order", [("thefame", "wstm"), ("wstm", "thefame")])
def test_shared_world_gives_the_results_of_private_worlds(case, order):
    base = _shared_world_cases()[case]
    world = World(base)
    shared = {p: run_match(base.with_protocol(p), world=world) for p in order}
    for protocol in order:
        a, b = shared[protocol], run_match(base.with_protocol(protocol))
        assert a.metrics.rounds == b.metrics.rounds
        assert a.metrics.deaths == b.metrics.deaths
        assert a.metrics.debits == b.metrics.debits
        assert a.feed == b.feed
        assert a.events == b.events
        assert a.early_stop_round == b.early_stop_round
        # a node's events count up to and including the round it dies in
        last = a.early_stop_round or base.rounds
        death = dict(a.metrics.deaths)
        assert a.events == [ev for t in sorted(world.history) if t <= last
                            for ev in world.history[t][0]
                            if death.get(ev.player_id, last) >= t]
    if case == "default":
        assert shared["wstm"].early_stop_round == 180
    if case == "high-rate-0.5j":
        assert all(r.metrics.deaths for r in shared.values())
        assert len(shared["wstm"].events) < len(shared["thefame"].events)


@pytest.mark.parametrize("change", [{"seed": 2}, {"rounds": 299},
                                    {"channel": ChannelParams(drop_probability=0.5)},
                                    {"mobility": MobilityParams(v_walk=4.0)}])
def test_world_refuses_a_scenario_it_does_not_serve(change):
    base = small()
    with pytest.raises(ValueError):
        run_match(base, world=World(replace(base, **change)))


def test_world_serves_the_other_protocol():
    # a world holds only the pitch, no sinks: one built from the wstm
    # scenario plays the rounds of one built from the thefame scenario, and
    # the thefame match on it routes to the six sinks of its own scenario
    base = small(rounds=50)
    world = World(base.with_protocol("wstm"))
    own = World(base)
    assert (run_match(base, world=world).metrics.rounds
            == run_match(base, world=own).metrics.rounds)
    assert world.round == own.round == 50
    assert world.history == own.history


def test_the_world_plays_ahead_of_a_match_only_to_its_last_round():
    # wstm, seed 0, stops at round 180; its world plays the block to 200
    stopped = MatchSim(parse_scenario(str(SCENARIOS / "wstm.cfg")))
    assert stopped.run().early_stop_round == 180
    assert stopped.world.round == 2 * engine.WORLD_BLOCK == 200
    # 150 rounds end inside the second block
    short = MatchSim(small(rounds=150))
    short.run()
    assert short.world.round == 150


@pytest.mark.parametrize("shared", [False, True])
def test_a_stopped_match_returns_the_rows_of_the_rounds_it_played(shared):
    wstm = parse_scenario(str(SCENARIOS / "wstm.cfg"))
    n = wstm.players

    def recording(scenario):
        return World(scenario, record_trajectory=True, record_lactate=True)

    world = recording(wstm)
    if shared:   # thefame plays all 5400 rounds on the world first
        fame = run_match(wstm.with_protocol("thefame"), world)
        assert len(fame.trajectory) == len(fame.lactate_trace) == n * wstm.rounds
    result = run_match(wstm, world)
    assert result.early_stop_round == 180
    assert world.round > 180
    assert result.trajectory == world.trajectory[:n * 180]
    assert result.lactate_trace == world.lactate_trace[:n * 180]
    assert {row[1] for row in result.trajectory} == set(range(1, 181))
    assert {row[1] for row in result.lactate_trace} == set(range(1, 181))
    private = run_match(wstm, recording(wstm))
    assert (result.trajectory, result.lactate_trace) == (private.trajectory,
                                                         private.lactate_trace)


def test_snapshots_are_the_recorded_positions():
    # a snapshot is (events, xs, ys) with one array('d') per axis, by player id
    world = World(_shared_world_cases()["high-rate"], record_trajectory=True)
    for _ in range(world.scenario.rounds):
        world.advance()
    n = len(world.kins)
    assert len(world.history) > 200
    for t, (_, xs, ys) in world.history.items():
        rows = world.trajectory[(t - 1) * n:t * n]
        assert [r[:2] for r in rows] == [(p, t) for p in range(n)]
        assert (xs.typecode, ys.typecode) == ("d", "d")
        assert xs.tobytes() == array("d", [r[2] for r in rows]).tobytes()
        assert ys.tobytes() == array("d", [r[3] for r in rows]).tobytes()


@pytest.mark.parametrize("after_wstm", [False, True])
def test_thefame_debits_only_its_origins(after_wstm):
    base = _shared_world_cases()["high-rate"]
    world = World(base)
    if after_wstm:   # the world is then 600 rounds ahead of the thefame match
        run_match(base.with_protocol("wstm"), world=world)
    sim = MatchSim(base, world)
    radio, bits = base.radio, base.radio.packet_bits
    packets = 0
    for t in range(1, base.rounds + 1):
        before = {p: len(d) for p, d in sim.metrics.debits.items()}
        sim.run_round()
        events, xs, ys = world.history.get(t, ((), None, None))
        origins = [ev.player_id for ev in events]
        packets += len(origins)
        for p, debits in sim.metrics.debits.items():
            if p in origins:
                d = nearest_sink_xy(xs[p], ys[p], sim.field)[1]
                want = [direct_tx_energy(radio, bits, d)] * origins.count(p)
            else:
                want = []
            assert debits[before[p]:] == want
    assert packets > 200 and not sim.metrics.deaths
