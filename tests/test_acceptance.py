"""Acceptance suite. One test per criterion (criterion 4 is split per
sub-claim); each prints a PASS/FAIL line, visible under ``pytest -s``.

Known red: the baseline's first-death window in 4a. With equal initial
batteries, a node in the periodic multi-hop baseline burns energy every
10 s period (own sends plus relay duty) while threshold nodes spend
only on their few trigger events, so any battery small enough for the
event protocol to record a first death at all is gone within tens of
baseline rounds; no battery size places both windows simultaneously.
The assert is kept faithful to the stated target rather than loosened.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pitchsim.channel import ChannelParams, transmit_hop
from pitchsim.cli import _paired_runs, main as cli_main
from pitchsim.energy import Battery, RadioModel, direct_tx_energy, relay_rx_energy
from pitchsim.engine import run_match, simulate_mobility, stream
from pitchsim.geometry import FieldConfig, Point
from pitchsim.mobility import MobilityParams
from pitchsim.report import summarize, throughput_pct
from pitchsim.scenario import Scenario, parse_scenario

import workloads  # the benchmark's output check
from test_geometry import distance
from test_protocol import _oracle_greedy, player, table
from pitchsim.protocol import wstm_route

PAIR_SEEDS = range(10)
ROOT = Path(__file__).resolve().parents[1]
HIGH_RATE = parse_scenario(str(ROOT / "scenarios" / "high-rate.cfg"))


@contextmanager
def criterion(label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def paired_runs():
    """Ten paired full matches per protocol under the default scenario."""
    fame = [run_match(Scenario(seed=s)) for s in PAIR_SEEDS]
    wstm = [run_match(Scenario(seed=s, protocol="wstm")) for s in PAIR_SEEDS]
    return fame, wstm


# --- 1. equation fidelity -------------------------------------------------

def test_criterion_1_equation_fidelity():
    with criterion("1 equation fidelity"):
        unit = RadioModel(e_circuitry=1.0, e_amp=0.0)
        half = RadioModel(e_circuitry=0.5, e_amp=0.5)
        default = RadioModel()
        picky = RadioModel(e_circuitry=9e-10, e_amp=1e-10)

        exact_vectors = [
            (direct_tx_energy(default, 0, 50), 0.0),
            (direct_tx_energy(half, 1, 1), 1.0),
            (direct_tx_energy(unit, 2, 10), 200.0),
            # per hop and per relay: the engine charges each as it forwards
            (direct_tx_energy(unit, 1, 10), 100.0),
            (direct_tx_energy(unit, 1, 0), 0.0),
            (direct_tx_energy(unit, 4, 1), 4.0),
            (direct_tx_energy(unit, 4, 2), 16.0),
            (direct_tx_energy(unit, 4, 3), 36.0),
            (direct_tx_energy(unit, 1, 5), 25.0),
            (relay_rx_energy(unit, 7), 7.0),
            (relay_rx_energy(unit, 1), 1.0),
            (relay_rx_energy(half, 0), 0.0),
            (throughput_pct(70, 100), 70.0),
            (throughput_pct(0, 100), 0.0),
            (throughput_pct(5, 5), 100.0),
            (throughput_pct(1, 4), 25.0),
        ]
        for got, want in exact_vectors:
            assert got == want

        rel_vectors = [
            (direct_tx_energy(default, 1024, 50), 1.28256e-1),
            (relay_rx_energy(picky, 1024), 1.024e-6),
        ]
        for got, want in rel_vectors:
            assert abs(got - want) / want < 1e-12


# --- 2. channel statistics ------------------------------------------------

def test_criterion_2_channel_statistics():
    with criterion("2 channel statistics"):
        params = ChannelParams()
        rng = stream(0, "acceptance-channel")
        n = 100_000
        drops = sum(1 for _ in range(n) if not transmit_hop(params, rng))
        rate = drops / n
        assert 0.29 <= rate <= 0.31, f"drop rate {rate}"

        sent = received = 0
        for seed in range(8):
            totals = run_match(HIGH_RATE.with_seed(seed)).totals
            sent += totals.origin_sends
            received += totals.received
        assert sent >= 15_000, f"only {sent} packets; widen the seed pool"
        delivery = received / sent
        assert 0.69 <= delivery <= 0.71, f"end-to-end delivery {delivery}"


# --- 3. mobility calibration ------------------------------------------------

def test_criterion_3_mobility_calibration():
    with criterion("3 mobility calibration"):
        params = MobilityParams()
        distances, counts = [], []
        for seed in range(20):
            run = simulate_mobility(Scenario(mobility=params, players=22,
                                             rounds=5400, seed=seed))
            per = {k.player_id: [] for k in run.players}
            for ep in run.sprints:
                per[ep.player_id].append(ep)
            for k in run.players:
                distances.append(k.cumulative_km)
                counts.append(len(per[k.player_id]))
                episodes = per[k.player_id]
                for ep in episodes:
                    if not ep.truncated:
                        assert 2 <= ep.duration <= 5, ep
                for a, b in zip(episodes, episodes[1:]):
                    rest = b.start - (a.start + a.duration)
                    assert rest >= 2 * a.duration, (a, b)
        mean_km = statistics.mean(distances)
        mean_sprints = statistics.mean(counts)
        assert 10.0 <= mean_km <= 12.0, f"mean distance {mean_km}"
        assert 80.0 <= mean_sprints <= 120.0, f"mean sprints {mean_sprints}"


# --- 4. ordering reproduction ------------------------------------------------

def _stability(result):
    s = result.totals.first_death
    return float("inf") if s is None else s


def test_criterion_4a_stability_ordering(paired_runs):
    with criterion("4a stability ordering (event protocol outlives baseline)"):
        fame, wstm = paired_runs
        wins = sum(1 for f, w in zip(fame, wstm) if _stability(f) > _stability(w))
        assert wins >= 9, f"only {wins}/10 pairs ordered"


def test_criterion_4a_thefame_death_window(paired_runs):
    with criterion("4a first-death window, event protocol [4500, 5400]"):
        fame, _ = paired_runs
        firsts = [r.totals.first_death for r in fame]
        assert all(f is not None and 4500 <= f <= 5400 for f in firsts), firsts


def test_criterion_4a_wstm_death_window(paired_runs):
    with criterion("4a first-death window, baseline [2200, 3200]"):
        _, wstm = paired_runs
        firsts = [r.totals.first_death for r in wstm]
        # Known red; see the module docstring and the decisions ledger.
        assert all(f is not None and 2200 <= f <= 3200 for f in firsts), firsts


def test_criterion_4b_transmission_totals(paired_runs):
    with criterion("4b baseline sends more per-hop transmissions"):
        fame, wstm = paired_runs
        fame_total = sum(r.totals.hop_sends for r in fame)
        wstm_total = sum(r.totals.hop_sends for r in wstm)
        assert wstm_total > fame_total, (wstm_total, fame_total)


def test_criterion_4c_delay_ordering(paired_runs):
    with criterion("4c baseline mean delay higher in 10/10 pairs"):
        fame, wstm = paired_runs
        for f, w in zip(fame, wstm):
            fd, wd = (summarize(r.scenario.protocol, [r.totals]).mean_delay_s
                      for r in (f, w))
            assert fd is not None and wd is not None
            assert wd > fd, (wd, fd)


def test_criterion_4d_residual_energy_dominance(paired_runs):
    with criterion("4d event protocol residual >= baseline's every round"):
        fame, wstm = paired_runs
        for f, w in zip(fame, wstm):
            for rf, rw in zip(f.metrics.rounds, w.metrics.rounds):
                assert rf.residual_j >= rw.residual_j, rf.round


def test_criterion_4e_delivery_gap(paired_runs):
    with criterion("4e end-to-end delivery gap >= 5 points"):
        fame, wstm = paired_runs
        fd = (sum(r.totals.received for r in fame)
              / sum(r.totals.origin_sends for r in fame))
        wd = (sum(r.totals.received for r in wstm)
              / sum(r.totals.origin_sends for r in wstm))
        assert (fd - wd) * 100.0 >= 5.0, (fd, wd)


# --- 5. conservation ------------------------------------------------

def assert_conserved(result):
    """Criterion 5 on one match result: the benchmark's conservation
    identities, and per round no more packets resolved at or after a hop
    than hops were sent."""
    assert workloads.conservation_problems(result, Battery) == []
    for rec in result.metrics.rounds:
        assert rec.received + rec.hop_drops <= rec.hop_sends, rec


def test_criterion_5_conservation(paired_runs):
    with criterion("5 packet and energy conservation"):
        fame, wstm = paired_runs
        for result in fame + wstm:
            assert_conserved(result)


def test_criterion_5_conservation_over_the_scenario_space():
    # 0.002 J lets a relay's receive kill it mid-round, 1000 J lets no
    # node die; the high-rate trigger gives thefame packets within 200 rounds
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(players=st.integers(1, 22), rounds=st.integers(1, 200),
           energy=st.sampled_from([0.002, 0.025, 1000.0]),
           drop=st.sampled_from([0.0, 0.3, 1.0]), max_hops=st.integers(1, 10),
           high_rate=st.booleans(), seed=st.integers(0, 1000))
    def check(players, rounds, energy, drop, max_hops, high_rate, seed):
        base = HIGH_RATE.with_seed(seed) if high_rate else Scenario(seed=seed)
        base = replace(base, players=players, rounds=rounds, initial_energy_j=energy,
                       channel=ChannelParams(drop_probability=drop), max_hops=max_hops)
        fame, wstm = base.with_protocol("thefame"), base.with_protocol("wstm")
        private = {s.protocol: run_match(s) for s in (fame, wstm)}
        # through the path compare runs, then with wstm first on the world
        for result in (*_paired_runs(fame, wstm), *_paired_runs(wstm, fame)):
            assert_conserved(result)
            assert result == private[result.scenario.protocol]
            t = result.totals
            seen.update(
                f"{result.scenario.protocol} {what}" for what, happened in (
                    ("sends", t.origin_sends), ("drops", t.hop_drops),
                    ("dies", result.metrics.deaths), ("fails", t.routing_failures),
                    ("stops early", result.early_stop_round)) if happened)

    check()
    # the draws reach every outcome that the identities must survive
    assert seen >= {"thefame sends", "thefame drops", "thefame dies", "wstm sends",
                    "wstm drops", "wstm dies", "wstm fails", "wstm stops early"}


# --- 6. determinism ------------------------------------------------

def test_criterion_6_byte_identical_reruns(tmp_path):
    with criterion("6 byte-identical rerun"):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text("seed = 4\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(out2)]) == 0
        for name in ("timeseries.csv", "events.csv", "summary.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs"


# --- 7. greedy-routing oracle ------------------------------------------------

def test_criterion_7_greedy_oracle():
    with criterion("7 greedy forwarding equals brute-force oracle"):
        rng = stream(0, "acceptance-greedy")
        field = FieldConfig.goal_sinks()
        sink_pos = dict(field.sinks)
        for _ in range(1000):
            n = rng.randint(1, 6)
            players = [player(i, rng.uniform(0, 106), rng.uniform(0, 68))
                       for i in range(n)]
            max_hops = rng.randint(1, 6)
            origin = players[rng.randrange(n)]
            got = wstm_route(origin.player_id, table(players, field), max_hops)
            want = _oracle_greedy(origin, players, field, max_hops)
            if want is None:
                assert got is None
                continue
            got_path = [("player", h.dst_player) if h.dst_player is not None
                        else ("sink", h.dst_sink) for h in got.hops]
            assert got_path == want
            # distance to the nearest sink strictly decreases along the route
            def nearest(pt):
                return min(distance(pt, pos) for pos in sink_pos.values())
            pos = {p.player_id: Point(p.x, p.y) for p in players}
            chain = [pos[got.hops[0].src]]
            chain += [pos[h.dst_player] for h in got.hops if h.dst_player is not None]
            for a, b in zip(chain, chain[1:]):
                assert nearest(b) < nearest(a)
