import math
import struct

import pytest
from hypothesis import example, given, strategies as st

from pitchsim.energy import (FIRST_ORDER, Battery, InvalidHopCountError,
                             NegativeInputError, RadioModel, direct_tx_energy,
                             multihop_rx_energy, multihop_total_energy,
                             multihop_tx_energy, relay_rx_energy)

UNIT = RadioModel(e_circuitry=1.0, e_amp=0.0)
DEFAULT = RadioModel()


def rel_err(a, b):
    return abs(a - b) / abs(b)


def test_direct_zero_bits():
    assert direct_tx_energy(DEFAULT, 0, 50) == 0.0


def test_direct_unit_constants():
    m = RadioModel(e_circuitry=0.5, e_amp=0.5)
    assert direct_tx_energy(m, 1, 1) == 1.0


def test_direct_hand_evaluated():
    # (5e-8 + 1e-10) * 1024 * 50^2 = 5.01e-8 * 1024 * 2500 = 1.28256e-1
    got = direct_tx_energy(DEFAULT, 1024, 50)
    assert rel_err(got, 1.28256e-1) < 1e-12


def test_direct_negative_inputs():
    with pytest.raises(NegativeInputError):
        direct_tx_energy(DEFAULT, -1, 10)
    with pytest.raises(NegativeInputError):
        direct_tx_energy(DEFAULT, 10, -1)


def test_multihop_tx_single_hop_equals_direct():
    assert multihop_tx_energy(DEFAULT, 1024, [37.0]) == direct_tx_energy(DEFAULT, 1024, 37.0)


def test_multihop_tx_equal_hops():
    assert multihop_tx_energy(UNIT, 1, [10, 10, 10]) == 300.0


def test_multihop_tx_empty():
    assert multihop_tx_energy(DEFAULT, 1024, []) == 0.0


@pytest.mark.parametrize("n", range(1, 11))
def test_multihop_tx_matches_closed_form_for_equal_hops(n):
    # integer-representable inputs keep the sum exact
    d = 10.0
    assert multihop_tx_energy(UNIT, 1, [d] * n) == n * direct_tx_energy(UNIT, 1, d)


def test_multihop_rx_single_hop():
    assert multihop_rx_energy(DEFAULT, 1024, 1) == 0.0


def test_multihop_rx_hand_evaluated():
    # (3-1) * 1e-9 * 1024 = 2.048e-6
    m = RadioModel(e_circuitry=9e-10, e_amp=1e-10)
    assert rel_err(multihop_rx_energy(m, 1024, 3), 2.048e-6) < 1e-12


def test_multihop_rx_zero_bits():
    assert multihop_rx_energy(DEFAULT, 0, 2) == 0.0


def test_multihop_rx_invalid_hop_count():
    with pytest.raises(InvalidHopCountError):
        multihop_rx_energy(DEFAULT, 1024, 0)


def test_total_single_hop_equals_direct():
    assert multihop_total_energy(DEFAULT, 1024, [12.0]) == direct_tx_energy(DEFAULT, 1024, 12.0)


def test_total_equal_hops_hand_evaluated():
    # 3 hops of 10 at unit constants: 3*100 transmit + 2*1 receive
    assert multihop_total_energy(UNIT, 1, [10, 10, 10]) == 302.0


def test_total_empty_path():
    assert multihop_total_energy(DEFAULT, 1024, []) == 0.0


def test_total_with_equal_hops_never_beats_direct_at_same_hop_distance():
    for n in range(2, 8):
        total = multihop_total_energy(UNIT, 1, [10.0] * n)
        assert total >= direct_tx_energy(UNIT, 1, 10.0)


def test_first_order_variant_splits_circuitry():
    m = RadioModel(e_circuitry=2.0, e_amp=3.0, form=FIRST_ORDER)
    assert direct_tx_energy(m, 1, 2) == 2.0 + 3.0 * 4.0
    assert relay_rx_energy(m, 1) == 2.0


# distances bounded away from the subnormal range so that power-of-two
# scaling stays exact
bits = st.integers(min_value=0, max_value=1 << 16)
dists = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@given(bits, dists)
def test_doubling_bits_doubles_energy(k, d):
    assert direct_tx_energy(DEFAULT, 2 * k, d) == 2 * direct_tx_energy(DEFAULT, k, d)


@given(bits, st.lists(dists, max_size=6))
def test_doubling_distance_quadruples_tx_leaves_rx_alone(k, hops):
    tx = multihop_tx_energy(DEFAULT, k, hops)
    assert multihop_tx_energy(DEFAULT, k, [2 * d for d in hops]) == 4 * tx
    if hops:
        n = len(hops)
        assert multihop_rx_energy(DEFAULT, k, n) == multihop_rx_energy(DEFAULT, k, n)


def test_battery_simple_debit():
    b = Battery(1.0)
    assert b.debit(0.3) == 0.3
    assert b.residual == pytest.approx(0.7)
    assert not b.dead


def test_battery_clamps_and_dies():
    b = Battery(0.2)
    applied = b.debit(0.5)
    assert applied == 0.2
    assert b.residual == 0.0
    assert b.dead


def test_battery_dead_is_noop():
    b = Battery(0.1)
    b.debit(1.0)
    assert b.debit(5.0) == 0.0
    assert b.residual == 0.0


def test_battery_rejects_negative():
    with pytest.raises(NegativeInputError):
        Battery(1.0).debit(-0.1)


@given(st.floats(min_value=1e-6, max_value=10, allow_nan=False),
       st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), max_size=40))
def test_battery_replay_reproduces_state_exactly(initial, amounts):
    b = Battery(initial)
    applied = [b.debit(a) for a in amounts]
    # replay the applied debits through a fresh battery: bitwise identical state
    fresh = Battery(initial)
    for a in applied:
        fresh.debit(a)
    assert fresh.consumed == b.consumed
    assert fresh.residual == b.residual
    assert b.residual == b.initial - b.consumed  # exact by construction
    # residual never increases, never below zero
    assert 0.0 <= b.residual <= b.initial


def property_debit(b, amount):
    """Battery.debit as it read through the ``dead`` and ``residual``
    properties, ``dead`` then being ``residual <= 0.0``: the reference its
    one read of ``initial - consumed`` must match bit for bit."""
    if amount < 0:
        raise NegativeInputError(f"amount={amount}")
    if b.residual <= 0.0:
        return 0.0
    remaining = b.residual
    if amount >= remaining:
        b.consumed = b.initial
        return remaining
    b.consumed = b.consumed + amount
    return amount


@st.composite
def battery_states(draw):
    """(initial, consumed, amount): live, just-dead and overdrawn batteries,
    and amounts below, at and above the remaining energy, both zeros and
    a few negatives."""
    initial = draw(st.sampled_from([0.025, 1000.0, 5e-324]) | st.floats(1e-300, 1e300))
    consumed = draw(st.sampled_from([0.0, -0.0, initial, math.nextafter(initial, 0.0),
                                     math.nextafter(initial, math.inf)])
                    | st.floats(0.0, initial) | st.floats(initial, 2.0 * initial))
    remaining = initial - consumed
    near = [remaining, math.nextafter(remaining, -math.inf),
            math.nextafter(remaining, math.inf)]
    amount = draw(st.sampled_from([0.0, -0.0, math.inf, -1e-300] + near)
                  | st.floats(0.0, 2.0 * initial) | st.floats(-1.0, 0.0))
    return initial, consumed, amount


@given(battery_states())
@example((0.025, 0.0, 0.0))
@example((0.025, 0.0, -0.0))
@example((0.025, 0.025, 0.0))           # dead
@example((0.025, 0.025, 1.0))
@example((0.025, 0.01, 0.015))          # at the remaining energy
@example((0.025, 0.01, 0.014999999999999999))
@example((1.0, 0.3, 0.7000000000000001))
# consumed + remaining rounds to just below initial: only the drain, not an
# addition, leaves consumed == initial
@example((0.9391491627785106, 0.35800764067250507, 0.9391491627785106 - 0.35800764067250507))
def test_debit_matches_the_property_based_reference(state):
    initial, consumed, amount = state
    got, want = Battery(initial, consumed), Battery(initial, consumed)
    assert got.dead == (got.residual <= 0.0)
    try:
        want_applied = property_debit(want, amount)
    except NegativeInputError:
        with pytest.raises(NegativeInputError):
            got.debit(amount)
        return
    # struct bits, so that -0.0 and 0.0 differ
    assert (struct.pack("<2d", got.debit(amount), got.consumed)
            == struct.pack("<2d", want_applied, want.consumed))
    assert got.dead == (got.residual <= 0.0)
