"""Radio energy accounting for direct and relayed transmissions.

The default cost model lumps the circuitry and amplifier coefficients
into a single distance-scaled term:

    tx(k, d)            = (e_circuitry + e_amp) * k * d**2
    rx per relay (k)    = (e_circuitry + e_amp) * k

The engine charges both as it forwards a packet, per hop and per relay:
each hop's sender pays the tx term for that hop, and each relay the rx
term, so a delivered N-hop route costs N tx terms and N-1 rx terms.
These two functions are the only statement of either cost. A conventional
``first-order`` variant (circuitry energy not scaled by distance) is
available for sanity comparisons.

Units: joules, bits, yards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

LUMPED = "lumped"
FIRST_ORDER = "first-order"


@dataclass(frozen=True)
class RadioModel:
    """Radio energy coefficients (``e_circuitry`` in J/bit, ``e_amp`` in
    J/bit/yd^2), the packet size in bits, and ``form``, ``LUMPED`` or
    ``FIRST_ORDER``, which picks the formula of both cost functions."""

    e_circuitry: float = 50e-9   # J/bit
    e_amp: float = 100e-12       # J/bit/yd^2
    packet_bits: int = 1024
    form: str = LUMPED

    def __post_init__(self):
        if not (0 <= self.e_circuitry < inf and 0 <= self.e_amp < inf):
            raise ValueError("energy coefficients must be in [0, inf)")
        if type(self.packet_bits) is not int or self.packet_bits <= 0:
            raise ValueError("packet_bits must be positive")
        if self.form not in (LUMPED, FIRST_ORDER):
            raise ValueError(f"unknown radio form {self.form!r}")


def direct_tx_energy(m: RadioModel, k: float, d: float) -> float:
    """Energy to transmit k bits over one hop of d yards."""
    if m.form == FIRST_ORDER:
        return m.e_circuitry * k + m.e_amp * k * d * d
    return (m.e_circuitry + m.e_amp) * k * d * d


def relay_rx_energy(m: RadioModel, k: float) -> float:
    """Reception cost paid by a single relay, independent of distance."""
    coeff = m.e_circuitry if m.form == FIRST_ORDER else m.e_circuitry + m.e_amp
    return coeff * k


@dataclass(slots=True)
class Battery:
    """Per-node energy store. Tracks consumption so that
    ``residual == initial - consumed`` holds exactly at all times.
    """

    initial: float
    consumed: float = 0.0

    @property
    def residual(self) -> float:
        return self.initial - self.consumed

    @property
    def dead(self) -> bool:
        return self.initial - self.consumed <= 0.0

    def debit(self, amount: float) -> float:
        """Drain up to ``amount`` joules; returns what was actually applied.

        Debits on a dead battery are no-ops. A node that cannot afford the
        full amount is drained to zero (and dies) but the action the debit
        paid for still completes. ``amount`` is never negative: the engine
        passes only ``direct_tx_energy`` and ``relay_rx_energy`` values.
        """
        remaining = self.initial - self.consumed   # residual, read once
        if remaining <= 0.0:
            return 0.0
        if amount >= remaining:
            self.consumed = self.initial
            return remaining
        self.consumed = self.consumed + amount
        return amount
