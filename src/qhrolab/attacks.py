"""Distinguishing attacks: Choi-copy preparation, SWAP-test key search, and
the symmetric-subspace rank measurement."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import StateVector, UnitaryMatrix, apply_gate, choi_state, haar_unitary, qubits_first, trial_rng

__all__ = [
    "NonAdaptiveCircuit",
    "AttackReport",
    "choi_from_copies",
    "swap_or_attack",
    "sym_dim",
    "rank_ratio",
    "sym_basis",
    "rank_projector",
    "rank_projector_attack",
]


@dataclass(frozen=True)
class NonAdaptiveCircuit:
    """B (U^{tensor t}) A on t parallel n-qubit oracle calls."""

    a: UnitaryMatrix
    b: UnitaryMatrix
    t: int

    def __post_init__(self):
        if self.a.entries.shape != self.b.entries.shape:
            raise ValueError("pre/post registers differ")


@dataclass
class AttackReport:
    params: dict
    fidelities: dict = field(default_factory=dict)
    success: float = 0.0


def choi_from_copies(circuit: NonAdaptiveCircuit, copies) -> StateVector:
    """Turn t copies of |Phi_U> into |Phi_{B U^t A}> via the ricochet move.

    Copy i occupies qubits [2ni, 2ni+n) (input half) and [2ni+n, 2ni+2n)
    (output half); the result is re-ordered to the standard Choi layout
    (all input halves first).
    """
    copies = list(copies)
    if len(copies) != circuit.t:
        raise ValueError("copy count does not match the circuit")
    n = copies[0].qubit_count // 2
    t = circuit.t
    if circuit.a.entries.shape[0] != 2 ** (n * t):
        raise ValueError("circuit register does not match t*n qubits")
    vec = np.array([1.0], dtype=complex)
    for c in copies:
        if c.qubit_count != 2 * n:
            raise ValueError("copies must share one dimension")
        vec = np.kron(vec, c.amplitudes)
    total = 2 * n * t
    left = [2 * n * i + j for i in range(t) for j in range(n)]
    right = [2 * n * i + n + j for i in range(t) for j in range(n)]
    vec = apply_gate(vec, circuit.a.entries.T, left, total)
    vec = apply_gate(vec, circuit.b.entries, right, total)
    mat, _ = qubits_first(vec, left + right, total)
    return StateVector(mat.reshape(-1), total)


def swap_or_attack(oracle_choi: StateVector, candidates: dict, copies_per_key: int, rng) -> AttackReport:
    """Accept if some key passes all its simulated SWAP tests.

    candidates maps key -> |Phi_{G_k}> prepared from copies. Each test is a
    Bernoulli draw at the exact acceptance probability (1 + F_k)/2.
    """
    if not candidates:
        return AttackReport(params={"copies_per_key": copies_per_key}, success=0.0)
    fids = {}
    accept = False
    for k, cand in candidates.items():
        f = abs(np.vdot(cand.amplitudes, oracle_choi.amplitudes)) ** 2
        fids[k] = float(f)
        p = 0.5 * (1.0 + f)
        if np.all(rng.random(copies_per_key) < p):
            accept = True
    rep = AttackReport(params={"copies_per_key": copies_per_key, "keys": len(candidates)})
    rep.fidelities = fids
    rep.success = 1.0 if accept else 0.0
    return rep


def sym_dim(d: int, t: int) -> int:
    """Dimension of the t-fold symmetric subspace of C^d."""
    if d < 1 or t < 0:
        raise ValueError("need d >= 1, t >= 0")
    return math.comb(d + t - 1, t)


def rank_ratio(lam: int, m: int, ell: int, t: int) -> Fraction:
    """Exact support-dimension ratio of the keyed vs independent Choi mixtures."""
    d2 = 4**m
    num = 2**lam * math.comb(d2 + ell + t - 1, ell + t)
    den = math.comb(d2 + ell - 1, ell) * math.comb(d2 + t - 1, t)
    return Fraction(num, den)


def sym_basis(d: int, s: int) -> np.ndarray:
    """Orthonormal basis (columns) of Sym^s(C^d) inside (C^d)^{tensor s}."""
    cols = []
    for mset in itertools.combinations_with_replacement(range(d), s):
        arrangements = set(itertools.permutations(mset))
        v = np.zeros(d**s, dtype=complex)
        amp = 1.0 / math.sqrt(len(arrangements))
        for arr in arrangements:
            idx = 0
            for a in arr:
                idx = idx * d + a
            v[idx] = amp
        cols.append(v)
    return np.array(cols).T


def rank_projector(m: int, t: int, ell: int, rotations) -> np.ndarray:
    """Projector onto the union over keys of rotated symmetric supports.

    rotations is a list of 4^m x 4^m matrices (A_k^T tensor B_k); each acts
    on the last `ell` Choi factors of Sym^{t+ell}(C^{4^m}).
    """
    d = 4**m
    s = t + ell
    base = sym_basis(d, s)
    cols = []
    for rot in rotations:
        op = np.eye(1, dtype=complex)
        for _ in range(t):
            op = np.kron(op, np.eye(d))
        for _ in range(ell):
            op = np.kron(op, rot)
        cols.append(op @ base)
    stacked = np.hstack(cols)
    u, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    q = u[:, sv > 1e-10]
    return q @ q.conj().T


def rank_projector_attack(m, lam, ell, t, circuit_family, trials, master_seed) -> AttackReport:
    """Measure {Pi, 1-Pi} on keyed vs independent Choi copies.

    circuit_family(k) returns (A_k, B_k) on m qubits. Keyed samples are
    Phi_U^{t} tensor Phi_{B_k U A_k}^{ell}; the null is an independent Haar V
    in place of the keyed calls.
    """
    if 2 * m * (t + ell) > 12:
        raise ValueError("total register exceeds the 12-qubit cap")
    if 2**lam > 16:
        raise ValueError("key space too large for the desk-scale projector")
    d = 4**m
    rotations = []
    mats = {}
    for k in range(2**lam):
        a, b = circuit_family(k)
        mats[k] = (a, b)
        rotations.append(np.kron(a.entries.T, b.entries))
    pi = rank_projector(m, t, ell, rotations)

    acc_keyed = []
    acc_null = []
    for tr in range(trials):
        rng = trial_rng(master_seed, tr)
        u = haar_unitary(2**m, rng)
        v = haar_unitary(2**m, rng)
        k = int(rng.integers(0, 2**lam))
        a, b = mats[k]
        g = UnitaryMatrix(b.entries @ u.entries @ a.entries)
        phi_u = choi_state(u).amplitudes
        phi_g = choi_state(g).amplitudes
        phi_v = choi_state(v).amplitudes
        keyed = np.array([1.0], dtype=complex)
        null = np.array([1.0], dtype=complex)
        for _ in range(t):
            keyed = np.kron(keyed, phi_u)
            null = np.kron(null, phi_u)
        for _ in range(ell):
            keyed = np.kron(keyed, phi_g)
            null = np.kron(null, phi_v)
        acc_keyed.append(float(np.linalg.norm(pi @ keyed) ** 2))
        acc_null.append(float(np.linalg.norm(pi @ null) ** 2))
    rep = AttackReport(params={"m": m, "lam": lam, "ell": ell, "t": t, "trials": trials})
    rep.fidelities = {
        "keyed_acceptance": float(np.mean(acc_keyed)),
        "null_acceptance": float(np.mean(acc_null)),
        "null_stderr": float(np.std(acc_null) / math.sqrt(max(trials, 1))),
        "rank_bound": float(rank_ratio(lam, m, ell, t)),
        "projector_idempotency": float(np.max(np.abs(pi @ pi - pi))),
    }
    rep.success = float(np.mean(acc_keyed)) - float(np.mean(acc_null))
    return rep
