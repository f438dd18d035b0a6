"""Radio energy accounting for direct and relayed transmissions.

The default cost model lumps the circuitry and amplifier coefficients
into a single distance-scaled term:

    tx(k, d)            = (e_circuitry + e_amp) * k * d**2
    rx per relay (k)    = (e_circuitry + e_amp) * k

so an N-hop path pays the tx term once per hop plus N-1 reception
terms. A conventional ``first-order`` variant (circuitry energy not
scaled by distance) is available for sanity comparisons.

Units: joules, bits, yards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable

LUMPED = "lumped"
FIRST_ORDER = "first-order"


class NegativeInputError(ValueError):
    """Bit count or distance below zero."""


class InvalidHopCountError(ValueError):
    """Reception cost queried for fewer than one hop."""


@dataclass(frozen=True)
class RadioModel:
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
    if k < 0 or d < 0:
        raise NegativeInputError(f"k={k}, d={d}")
    if m.form == FIRST_ORDER:
        return m.e_circuitry * k + m.e_amp * k * d * d
    return (m.e_circuitry + m.e_amp) * k * d * d


def multihop_tx_energy(m: RadioModel, k: float, hop_distances: Iterable[float]) -> float:
    """Total transmit energy over a hop sequence (sum of per-hop costs)."""
    total = 0.0
    for d in hop_distances:
        total += direct_tx_energy(m, k, d)
    return total


def relay_rx_energy(m: RadioModel, k: float) -> float:
    """Reception cost paid by a single relay, independent of distance."""
    if k < 0:
        raise NegativeInputError(f"k={k}")
    coeff = m.e_circuitry if m.form == FIRST_ORDER else m.e_circuitry + m.e_amp
    return coeff * k


def multihop_rx_energy(m: RadioModel, k: float, n_hops: int) -> float:
    """Total reception energy on an N-hop path: one receipt per relay."""
    if n_hops < 1:
        raise InvalidHopCountError(f"n_hops={n_hops}")
    return (n_hops - 1) * relay_rx_energy(m, k)


def multihop_total_energy(m: RadioModel, k: float, hop_distances: list[float]) -> float:
    """Transmit plus reception energy for a full path; empty path costs nothing."""
    if not hop_distances:
        return 0.0
    return multihop_tx_energy(m, k, hop_distances) + multihop_rx_energy(m, k, len(hop_distances))


@dataclass
class Battery:
    """Per-node energy store. Tracks consumption so that
    ``residual == initial - consumed`` holds exactly at all times.
    """

    initial: float
    consumed: float = 0.0

    def __post_init__(self):
        if not 0 < self.initial < inf:
            raise ValueError("initial energy must be in (0, inf)")

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
        paid for still completes.
        """
        if amount < 0:
            raise NegativeInputError(f"amount={amount}")
        remaining = self.initial - self.consumed   # residual, read once
        if remaining <= 0.0:
            return 0.0
        if amount >= remaining:
            self.consumed = self.initial
            return remaining
        self.consumed = self.consumed + amount
        return amount
