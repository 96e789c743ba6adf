"""Keyed constructions over a common oracle unitary.

Each construction exists in two forms: a concrete matrix (given a sampled U
and an integer key) and an oracle descriptor interpreted by the harness as a
sequence of recording steps and key-controlled Pauli layers for exact
purified simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .labels import _is_int
from .linalg import _check_key, _check_unitary, pauli_string
from .relstate import CFParams

__all__ = [
    "OracleDescriptor",
    "pru_two_query",
    "pru_one_query",
    "haar_slot",
    "concrete_oracle",
    "prfs_input",
    "prfs_output",
    "spru",
    "spru_concrete",
    "stretch_output_qubits",
    "stretch_key_bits",
    "gluing_bound",
]


@dataclass(frozen=True)
class OracleDescriptor:
    """A keyed oracle on n qubits as a sequence of steps applied left to right.

    Steps: ('pr', slot, cf) one recording query into an int label slot,
    collision-free when cf is a CFParams of cf.n = n and plain when it is
    None; ('pauli', 'X'|'Z') a Pauli layer on the lam-bit register prefix,
    controlled by the key slot of the init label. `shared_slots` lists the
    label slots whose joint image every recording step respects (defaults
    to each step's own slot). Both interpreters read the rule checked here.
    """

    n: int
    lam: int = 0
    steps: tuple = ()
    shared_slots: tuple | None = None

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.lam) and self.n >= 1 and 0 <= self.lam <= self.n):
            raise ValueError(f"an oracle needs ints n >= 1 and 0 <= lam <= n, not n = {self.n!r}, lam = {self.lam!r}")
        for s in self.steps:
            cf = s[2] if isinstance(s, tuple) and len(s) == 3 and s[0] == "pr" and _is_int(s[1]) else ""
            if not (cf is None or isinstance(cf, CFParams) and cf.n == self.n or s in (("pauli", "X"), ("pauli", "Z"))):
                raise ValueError(f"a step is ('pr', int slot, None | CFParams of n = {self.n}) or ('pauli', 'X' | 'Z'): {s!r}")

    def record_slots(self):
        return tuple(s[1] for s in self.steps if s[0] == "pr")


def pru_two_query(n: int, lam: int) -> OracleDescriptor:
    """U (X^k tensor I) U: two queries to the common oracle per call, both
    recorded in label slot 0."""
    if lam < 1:
        raise ValueError("key length must satisfy 1 <= lam <= n")
    return OracleDescriptor(n=n, lam=lam, steps=(("pr", 0, None), ("pauli", "X"), ("pr", 0, None)))


def pru_one_query(n: int, lam: int, cf: CFParams | None = None) -> OracleDescriptor:
    """(Z^k tensor I) U: a single query, recorded in label slot 0, followed by a key phase."""
    return OracleDescriptor(n=n, lam=lam, steps=(("pr", 0, cf), ("pauli", "Z")))


def haar_slot(n: int, slot: int = 0, cf: CFParams | None = None, shared_slots=None) -> OracleDescriptor:
    """The bare common oracle (one recording query, no key layers)."""
    return OracleDescriptor(n=n, steps=(("pr", slot, cf),), shared_slots=tuple(shared_slots) if shared_slots else None)


def concrete_oracle(desc: OracleDescriptor, u, k=0) -> np.ndarray:
    """Instantiate a descriptor as a matrix: recording steps become u and key
    layers use key k; or as a stack, from a stack u and one key per matrix."""
    if u.shape[-1] != 2**desc.n:
        raise ValueError("oracle register mismatch")
    k = _check_key(k, desc.lam)
    mat = np.broadcast_to(np.eye(2**desc.n, dtype=complex), u.shape)  # a stack u gives a stack without steps
    for step in desc.steps:
        if step[0] == "pr":
            mat = u @ mat
        else:  # the layers of the given keys only, one per matrix
            mat = np.reshape([pauli_string(step[1], j, desc.lam, desc.n) for j in k.flat], k.shape + u.shape[-2:]) @ mat
    return _check_unitary(mat)


def prfs_input(k, w, n: int, lam: int, m: int):
    """The basis index k || w || 0^{n-lam-m} of key k and function input w."""
    return (k << m | w) << (n - lam - m)


def prfs_output(u, k, w: int, n: int, lam: int, m: int) -> np.ndarray:
    """U |k || w || 0^{n-lam-m}>; at m = 0 (w = 0), the state generator's U |k || 0^{n-lam}>.
    A stack u with one key per matrix gives the stack of states."""
    if n < lam + m:
        raise ValueError("need n >= lam + m")
    if not 0 <= w < 2**m:
        raise ValueError("function input out of range")
    x = prfs_input(_check_key(k, lam), w, n, lam, m)
    return np.take_along_axis(u, x[..., None, None], axis=-1)[..., 0]


@dataclass(frozen=True)
class SpruLayout:
    """Register bookkeeping for the two-block staircase composition."""

    n_block: int
    overlap: int
    lam_small: int
    total_qubits: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.overlap < self.n_block:
            raise ValueError("overlap must satisfy 0 < overlap < n_block")
        total = 2 * self.n_block - self.overlap
        if total > 12:
            raise ValueError("joint register exceeds the 12-qubit cap")
        if self.lam_small > self.n_block:
            raise ValueError("inner key longer than a block")
        object.__setattr__(self, "total_qubits", total)


def spru(n_block: int, overlap: int, lam_small: int) -> SpruLayout:
    return SpruLayout(n_block, overlap, lam_small)


def spru_concrete(layout: SpruLayout, u: np.ndarray, k: int, k1: int, k2: int) -> np.ndarray:
    """Two keyed two-query blocks glued on the overlap register.

    Applies the AB block, an X^{k1} layer on AB, the AB block again, then the
    same staircase on BC with k2. u is the 2^n_block-square block unitary;
    ValueError unless the result is unitary.
    """
    nb = layout.n_block
    if np.shape(u) != (2**nb, 2**nb):
        raise ValueError("block unitary register mismatch")
    xk, x1, x2 = (pauli_string("X", j, layout.lam_small, nb) for j in (k, k1, k2))
    block = u @ xk @ u
    rest = 2 ** (layout.total_qubits - nb)
    ab = np.kron(block @ x1 @ block, np.eye(rest))
    bc = np.kron(np.eye(rest), block @ x2 @ block)
    return _check_unitary(bc @ ab)


def stretch_output_qubits(t: int, lam: int, rounds: int) -> int:
    """Register size after `rounds` doubling steps starting from t qubits."""
    b = math.ceil(math.log2(lam)) ** 2 if lam > 1 else 1
    if t <= b:
        raise ValueError("block must be smaller than the register")
    return (2**rounds) * (t - b) + b


def stretch_key_bits(lam: int, rounds: int) -> int:
    """Total key bits consumed: lam plus two fresh small keys per round."""
    l3 = math.ceil(math.log2(lam)) ** 3 if lam > 1 else 1
    return lam + 2 * rounds * l3


def gluing_bound(k: int, b_qubits: int) -> float:
    """Moment-closeness slack for gluing on a b-qubit overlap register."""
    return 5.0 * k * k / 2**b_qubits
