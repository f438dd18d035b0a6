from pitchsim.channel import ChannelParams
from pitchsim.energy import Battery, RadioModel, direct_tx_energy
from pitchsim.engine import (NO_DEATH, Delivery, MatchSim, MetricsLog,
                             aggregate, run_match, simulate_mobility,
                             stability_period)
from pitchsim.physiology import FatigueThresholds, LactateParams
from pitchsim.scenario import Scenario


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
    lossy = run_match(stress(rounds=300), record_trajectory=True)
    ideal = run_match(stress(rounds=300, channel=ChannelParams(drop_probability=0.0)),
                      record_trajectory=True)
    assert lossy.trajectory == ideal.trajectory
    assert lossy.metrics.total("hop_drops") > 0
    assert ideal.metrics.total("hop_drops") == 0


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
    assert result.metrics.total("triggered") == 0
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
    for pid in fired:
        kin = sim.nodes[pid].kin  # routing ran after this round's movement
        from pitchsim.geometry import nearest_sink
        _, dist = nearest_sink(kin.position, field)
        expected = direct_tx_energy(radio, radio.packet_bits, dist)
        assert debited[pid] == [expected]


def test_packet_conservation_both_protocols():
    for scenario in (stress(rounds=600), small("wstm", rounds=600)):
        m = run_match(scenario).metrics
        for rec in m.rounds:
            assert rec.received + rec.hop_drops + rec.routing_failures == rec.triggered
            assert rec.received + rec.hop_drops <= rec.hop_sends


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
    total = 0.0
    for pid, debits in m.debits.items():
        b = Battery(m.initial_energy_j)
        for amount in debits:
            b.debit(amount)
        total += b.residual
    assert total == m.rounds[-1].residual_j


def test_lossless_channel_delivers_every_sent_packet():
    scenario = stress(rounds=500, channel=ChannelParams(drop_probability=0.0),
                      initial_energy_j=50.0)
    m = run_match(scenario).metrics
    assert m.total("triggered") > 0
    for rec in m.rounds:
        assert rec.received == rec.origin_sends
        assert rec.hop_drops == 0


def test_one_round_no_triggers_single_zero_row():
    m = run_match(small(rounds=1)).metrics
    assert len(m.rounds) == 1
    rec = m.rounds[0]
    assert (rec.triggered, rec.hop_sends, rec.received) == (0, 0, 0)
    assert rec.alive == 22


def test_stability_period_examples():
    log = MetricsLog(initial_energy_j=1.0)
    log.deaths = [(3, 2700)]
    assert stability_period(log) == 2700
    log.deaths = []
    assert stability_period(log) is NO_DEATH
    log.deaths = [(1, 5100), (2, 5200)]
    assert stability_period(log) == 5100


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
    assert len(feed) == result.metrics.total("received")
    assert len({x.packet_id for x in feed}) == len(feed)
    keys = [(x.time, x.packet_id) for x in feed]
    assert keys == sorted(keys)


def test_simulate_mobility_ends_where_the_match_does():
    scenario = small("wstm", rounds=300, initial_energy_j=1000.0)
    sim = MatchSim(scenario, record_trajectory=True)
    result = sim.run()
    assert not result.metrics.deaths
    last = {pid: (x, y) for t, pid, x, y, _ in result.trajectory
            if t == scenario.rounds}
    match_end = [(*last[n.kin.player_id], n.kin.cumulative_km) for n in sim.nodes]
    alone = simulate_mobility(scenario.mobility, sim.field, scenario.players,
                              scenario.rounds, scenario.seed)
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
