"""Distinguishing attacks: Choi-copy preparation, SWAP-test key search, and
the symmetric-subspace rank measurement."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .harness import trial_stacks
from .linalg import _check_unitary, _qubits_of, apply_gate, choi_state, haar_unitaries, qubits_first

__all__ = [
    "choi_from_copies",
    "swap_or_attack",
    "sym_dim",
    "rank_ratio",
    "sym_basis",
    "rank_projector",
    "rank_projector_attack",
]


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


def choi_from_copies(a, b, copies):
    """Turn t copies of |Phi_U> into |Phi_{B U^t A}> via the ricochet move.

    a and b are the circuit's 2^(nt)-square pre- and post-unitaries, and t is
    len(copies), each a (T, 4^n) stack of Choi vectors, one per trial. Copy i
    occupies qubits [2ni, 2ni+n) (input half) and [2ni+n, 2ni+2n) (output
    half); the (T, 4^(nt)) result is re-ordered to the standard Choi layout
    (all input halves first).
    """
    if len(copies) == 0:
        raise ValueError("need at least one copy")
    t, n = len(copies), (_qubits_of(copies[0].shape[-1]) or 0) // 2
    if any(c.shape[-1] != 4**n for c in copies):
        raise ValueError("copies must share one dimension 4^n")
    if a.shape != b.shape:
        raise ValueError("pre/post registers differ")
    if a.shape != (2 ** (n * t),) * 2:
        raise ValueError("circuit register does not match t*n qubits")
    vec = _kron_stack(copies)
    total = 2 * n * t
    left = [2 * n * i + j for i in range(t) for j in range(n)]
    right = [2 * n * i + n + j for i in range(t) for j in range(n)]
    vec = apply_gate(vec, a.T, left, total)
    vec = apply_gate(vec, b, right, total)
    mat, _ = qubits_first(vec, left + right, total)
    return mat.reshape(len(mat), -1)


def swap_or_attack(oracle_choi, candidates, copies_per_key: int, rngs):
    """Accept a trial if some key passes all its simulated SWAP tests.

    Over a stack of T trials: oracle_choi is a (T, D) array of Choi vectors,
    candidates the (K, T, D) array of |Phi_{G_k}> prepared from copies, key
    by key, and trial t draws from rngs[t], one row per key. Each test is a
    Bernoulli draw at the exact acceptance probability (1 + F_k)/2. Returns
    the (K, T) fidelities F_k and the (T,) successes.
    """
    # one conjugated dot per key and trial, as np.vdot forms it
    fids = _abs2(np.matmul(candidates.conj()[:, :, None, :], oracle_choi[:, :, None])[:, :, 0, 0])
    draws = np.array([g.random((len(candidates), copies_per_key)) for g in rngs])
    passed = draws < 0.5 * (1.0 + fids.T)[:, :, None]
    return fids, passed.all(axis=2).any(axis=1).astype(float)


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


def rank_projector_attack(m, lam, ell, t, a_k, b_k, trials, master_seed) -> dict:
    """Measure {Pi, 1-Pi} on keyed vs independent Choi copies.

    a_k and b_k are the (2^lam, 2^m, 2^m) stacks of each key's pre- and
    post-unitaries. Keyed samples are Phi_U^{t} tensor Phi_{B_k U A_k}^{ell};
    the null is an independent Haar V in place of the keyed calls. Returns
    the mean acceptances, the null's stderr, the rank bound, the projector's
    idempotency deviation and the advantage (keyed minus null acceptance).
    """
    if 2 * m * (t + ell) > 12:
        raise ValueError("total register exceeds the 12-qubit cap")
    if 2**lam > 16:
        raise ValueError("key space too large for the desk-scale projector")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if a_k.shape != (2**lam, 2**m, 2**m) or b_k.shape != a_k.shape:
        raise ValueError("need one 2^m-square pre- and post-unitary per key")
    _check_unitary(a_k)
    _check_unitary(b_k)
    pi = rank_projector(m, t, ell, [np.kron(a.T, b) for a, b in zip(a_k, b_k)])
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
    keyed_acceptance, null_acceptance = float(np.mean(acc_keyed)), float(np.mean(acc_null))
    return {
        "keyed_acceptance": keyed_acceptance,
        "null_acceptance": null_acceptance,
        "null_stderr": float(np.std(acc_null) / math.sqrt(trials)),
        "rank_bound": float(rank_ratio(lam, m, ell, t)),
        "projector_idempotency": float(np.max(np.abs(pi @ pi - pi))),
        "advantage": keyed_acceptance - null_acceptance,
    }
