"""Distinguishing attacks: Choi-copy preparation, SWAP-test key search, and
the symmetric-subspace rank measurement."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .harness import trial_stacks
from .linalg import StateVector, UnitaryMatrix, _qubits_of, apply_gate, choi_state, haar_unitaries, qubits_first

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


def _kron_stack(vecs):
    """The Kronecker product of each trial's vectors in turn, over (T, D_i) stacks."""
    out = np.ones((len(vecs[0]), 1), dtype=complex)
    for v in vecs:
        out = (out[:, :, None] * v[:, None, :]).reshape(len(v), -1)
    return out


def _abs2(z):
    """abs(z) ** 2 of every entry, rounded as the scalar hypot and pow round it;
    an array's abs and ** 2 may round the last bit otherwise."""
    return np.array([abs(v) ** 2 for v in np.ravel(z).tolist()]).reshape(np.shape(z))


def choi_from_copies(circuit: NonAdaptiveCircuit, copies):
    """Turn t copies of |Phi_U> into |Phi_{B U^t A}> via the ricochet move.

    Copy i occupies qubits [2ni, 2ni+n) (input half) and [2ni+n, 2ni+2n)
    (output half); the result is re-ordered to the standard Choi layout
    (all input halves first). t (T, 4^n) stacks of copies, one Choi vector
    per trial, give the (T, 4^(nt)) stack.
    """
    copies = list(copies)
    if len(copies) != circuit.t:
        raise ValueError("copy count does not match the circuit")
    single = isinstance(copies[0], StateVector)
    stacks = [c.amplitudes[None] if single else c for c in copies]
    n = _qubits_of(stacks[0].shape[-1]) // 2
    t = circuit.t
    if circuit.a.entries.shape[0] != 2 ** (n * t):
        raise ValueError("circuit register does not match t*n qubits")
    if any(c.shape[-1] != 4**n for c in stacks):
        raise ValueError("copies must share one dimension")
    vec = _kron_stack(stacks)
    total = 2 * n * t
    left = [2 * n * i + j for i in range(t) for j in range(n)]
    right = [2 * n * i + n + j for i in range(t) for j in range(n)]
    vec = apply_gate(vec, circuit.a.entries.T, left, total)
    vec = apply_gate(vec, circuit.b.entries, right, total)
    mat, _ = qubits_first(vec, left + right, total)
    vecs = mat.reshape(len(mat), -1)
    return StateVector(vecs[0], total) if single else vecs


def swap_or_attack(oracle_choi, candidates: dict, copies_per_key: int, rngs) -> AttackReport:
    """Accept a trial if some key passes all its simulated SWAP tests.

    Over a stack of T trials: oracle_choi is a (T, D) array of Choi vectors,
    candidates maps key -> the (T, D) stack of |Phi_{G_k}> prepared from
    copies, and trial t draws from rngs[t], key by key. Each test is a
    Bernoulli draw at the exact acceptance probability (1 + F_k)/2. The
    fidelities and the success are (T,) arrays.
    """
    rep = AttackReport(params={"copies_per_key": copies_per_key}, success=np.zeros(len(oracle_choi)))
    if candidates:
        # one conjugated dot per trial and key, as np.vdot forms it
        fids = {k: _abs2(np.matmul(c.conj()[:, None, :], oracle_choi[:, :, None])[:, 0, 0]) for k, c in candidates.items()}
        draws = np.array([g.random((len(candidates), copies_per_key)) for g in rngs])
        passed = draws < 0.5 * (1.0 + np.stack(list(fids.values()), axis=1))[:, :, None]
        rep.params["keys"] = len(candidates)
        rep.fidelities = fids
        rep.success = passed.all(axis=2).any(axis=1).astype(float)
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
    pairs = [circuit_family(k) for k in range(2**lam)]
    pi = rank_projector(m, t, ell, [np.kron(a.entries.T, b.entries) for a, b in pairs])
    a_k = np.array([a.entries for a, _ in pairs])
    b_k = np.array([b.entries for _, b in pairs])
    acc_keyed, acc_null = [], []
    for _, rngs, held in trial_stacks(trials, master_seed):
        u = haar_unitaries(2**m, rngs)
        v = haar_unitaries(2**m, rngs)
        k = np.array([rng.integers(0, 2**lam) for rng in rngs])
        phi_u, phi_g, phi_v = (choi_state(x) for x in (u, b_k[k] @ u @ a_k[k], v))
        keyed = _kron_stack([phi_u] * t + [phi_g] * ell)
        null = _kron_stack([phi_u] * t + [phi_v] * ell)
        for acc, vecs in ((acc_keyed, keyed), (acc_null, null)):
            # ||Pi psi|| ** 2 by one matrix-vector product and the norm's two dots per trial
            proj = (pi @ vecs[:, :, None])[:, :, 0]
            sq = sum(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0] for x in (proj.real, proj.imag))
            acc.extend(_abs2(np.sqrt(sq)).tolist())
        held += [keyed, null]
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
