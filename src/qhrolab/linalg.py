"""Dense complex linear algebra substrate.

Conventions used throughout the package:

- big-endian qubit order: qubit 0 is the most significant bit of a basis
  index, so index 1 of a 2-qubit register is |01>.
- dense objects are capped in qubits (the *_QUBIT_CAP below); _within is the one cap test.
- exact identities are checked at 1e-9 (1e-10 where stated); statistical
  assertions carry explicit sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QUBIT_CAP = 14  # dense matrices: unitaries, Pauli strings, interleaves, density matrices
VEC_QUBIT_CAP = 24  # pure vectors may be larger than matrix-backed objects
VIEW_QUBIT_CAP = 12  # reduced views, spru's joint register, the rank projector: 4096 x 4096 matrices

__all__ = [
    "QUBIT_CAP",
    "VEC_QUBIT_CAP",
    "VIEW_QUBIT_CAP",
    "StateVector",
    "UnitaryMatrix",
    "DensityMatrix",
    "trial_rng",
    "haar_unitary",
    "haar_unitaries",
    "pauli_string",
    "key_pauli_action",
    "choi_state",
    "trace_distance",
    "apply_gate",
    "qubits_first",
    "qubits_restore",
    "apply_unitary",
]


def trial_rng(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator from (master_seed, trial_index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), int(trial_index))))


def _within(qubits, cap, what):
    """ValueError if `what` would span more than `cap` qubits: the one size rule, run before allocating."""
    if qubits > cap:
        raise ValueError(f"{what} would span {qubits} qubits, over the {cap}-qubit cap")


def _check_unitary(mat):
    """Return mat; ValueError unless every matrix of the (..., d, d) stack is unitary to 1e-9."""
    dev = np.max(np.abs(mat.conj().swapaxes(-1, -2) @ mat - np.eye(mat.shape[-1])))
    if dev > 1e-9:
        raise ValueError(f"matrix is not unitary (deviation {dev:.2e})")
    return mat


def _qubits_of(side: int) -> int | None:
    """log2 of a matrix side, or None if the side is not a power of two."""
    return side.bit_length() - 1 if side > 0 and side & (side - 1) == 0 else None


@dataclass(frozen=True)
class StateVector:
    """A dense pure state on `qubit_count` qubits."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self):
        _within(self.qubit_count, VEC_QUBIT_CAP, "a state vector")
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size != 2**self.qubit_count:
            raise ValueError("amplitude vector length must be 2^qubit_count")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitudes")

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A dense unitary; qubit_count is None for non-power-of-two dimensions."""

    entries: np.ndarray
    qubit_count: int | None = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary must be square")
        n = _qubits_of(mat.shape[0])
        object.__setattr__(self, "qubit_count", n)
        if n is not None:
            _within(n, QUBIT_CAP, "a unitary")
        _check_unitary(mat)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix; trace 1 or a declared subnormalization."""

    entries: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", mat)
        n = _qubits_of(mat.shape[0]) if mat.ndim == 2 and mat.shape[0] == mat.shape[1] else None
        if n is None:
            raise ValueError("density matrix must be square with a power-of-two side")
        _within(n, QUBIT_CAP, "a density matrix")
        object.__setattr__(self, "qubit_count", n)
        if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
            raise ValueError("density matrix must be Hermitian")


def _haar_stack(dim: int, rngs) -> np.ndarray:
    """haar_unitaries without its unitarity check: the one Haar draw."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _within(int(dim - 1).bit_length(), QUBIT_CAP, "a Haar unitary")
    a = np.empty((len(rngs), dim, dim), dtype=complex)
    for g, rng in zip(a, rngs):
        g.real = rng.standard_normal((dim, dim))
        g.imag = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    return q


def haar_unitaries(dim: int, rngs) -> np.ndarray:
    """A (len(rngs), dim, dim) stack of Haar samples, one drawn from each
    generator in turn, via Ginibre + QR with diagonal phase correction.

    Plain QR is biased; multiplying Q by diag(r_ii/|r_ii|) makes the
    distribution exactly Haar.
    """
    return _check_unitary(_haar_stack(dim, rngs))


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """One Haar sample: the stack of one that haar_unitaries draws from rng,
    checked once, by UnitaryMatrix."""
    return UnitaryMatrix(_haar_stack(dim, [rng])[0])


def _check_key(k, lam):
    """k as an int array; ValueError unless it holds ints in [0, 2^lam): the rule of every key layer and key slot."""
    arr = np.asarray(k)
    if lam < 0 or arr.dtype.kind not in "iu" or np.any((arr < 0) | (arr >= 2**lam)):
        raise ValueError(f"key out of range: a {lam}-bit key is an int in [0, 2^{lam})")
    return arr


def _parity(v):
    """Parity of the set bits of each non-negative int64."""
    for s in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> s)
    return v & 1


def key_pauli_action(kind, k, v):
    """(v', odd) of a key layer on key-register values v: X^k sends v to v ^ k (odd False), and Z^k
    keeps v and flips the sign where v & k has odd parity. ValueError for a kind but 'X' or 'Z'."""
    if kind == "X":
        return v ^ k, False
    if kind == "Z":
        return v, _parity(v & k) == 1
    raise ValueError(f"unknown Pauli kind {kind!r}")


def pauli_string(kind: str, k: int, lam: int, n: int) -> np.ndarray:
    """X^k tensor I or Z^k tensor I on n qubits, key k on the lam-bit prefix."""
    _within(n, QUBIT_CAP, "a Pauli string")
    if lam > n:
        raise ValueError("key length exceeds register size")
    idx = np.arange(2**n)
    out, odd = key_pauli_action(kind, int(_check_key(k, lam)) << (n - lam), idx)
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[out, idx] = np.where(odd, -1.0, 1.0)  # column y holds +-1 in row y' of the action
    return mat


def choi_state(u):
    """|Phi_U> = (I tensor U)|Omega>, |Omega> = 2^(-n/2) sum_x |x>|x>: its
    amplitude at (x, y) is 2^(-n/2) U[y, x].
    A (..., d, d) stack of unitaries gives the (..., d^2) stack of Choi vectors."""
    n = _qubits_of(u.shape[-1])
    if n is None:
        raise ValueError("Choi state needs a qubit-register unitary")
    return (np.swapaxes(u, -1, -2) * (2**n) ** -0.5).reshape(u.shape[:-2] + (-1,))


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b, for Hermitian arrays of one shape."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """TD(rho, sigma) = half the trace norm of the difference."""
    if rho.qubit_count != sigma.qubit_count:
        raise ValueError("dimension mismatch")
    return _trace_distance(rho.entries, sigma.entries)


def _check_targets(targets, n):
    """`targets` as a list; ValueError unless they are distinct qubits of [0, n):
    the target rule of every gate kernel (qubits_first, relstate.extract_bits)."""
    order, seen = list(targets), set()
    for q in order:
        if not 0 <= q < n or q in seen:
            raise ValueError(f"target qubit {q} must be distinct and in [0, {n})")
        seen.add(q)
    return order


def qubits_first(vec, targets, n):
    """(matrix, axis order) of an n-qubit vector: row index the `targets` bits
    (targets[0] most significant), column index the other qubits in order.
    Leading axes of `vec` (a stack of vectors) lead the matrix too.
    ValueError unless the targets are distinct and in [0, n)."""
    order = _check_targets(targets, n)
    k = len(order)
    order += [q for q in range(n) if q not in order]
    vec = np.asarray(vec, dtype=complex)
    lead = vec.shape[:-1]
    axes = [*range(len(lead)), *(len(lead) + q for q in order)]
    return vec.reshape(lead + (2,) * n).transpose(axes).reshape(lead + (2**k, -1)), order


def qubits_restore(mat, order):
    """Undo qubits_first: the flat vector, or stack of vectors, of a matrix laid out by `order`."""
    lead = mat.shape[:-2]
    axes = [*range(len(lead)), *(len(lead) + q for q in np.argsort(order).tolist())]
    return mat.reshape(lead + (2,) * len(order)).transpose(axes).reshape(lead + (-1,))


def apply_gate(vec, gate, targets, n):
    """A new vector: a 2^k x 2^k gate, whose index MSB is targets[0], applied
    to the k distinct `targets` qubits of an n-qubit vector. A stack of
    vectors takes one gate, or a stack of as many gates."""
    mat, order = qubits_first(vec, targets, n)
    return qubits_restore(np.asarray(gate, dtype=complex) @ mat, order)


def apply_unitary(state: StateVector, u: UnitaryMatrix, targets=None) -> StateVector:
    """Apply u to the given target qubits (defaults to the whole register)."""
    n = state.qubit_count
    targets = list(range(n) if targets is None else targets)
    if u.entries.shape[0] != 2 ** len(targets):
        raise ValueError("gate size does not match target count")
    out = apply_gate(state.amplitudes, u.entries, targets, n)
    return StateVector(out, n)
