"""Attack primitives: Choi-copy preparation, SWAP key search, rank measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qhrolab.attacks import (
    NonAdaptiveCircuit,
    choi_from_copies,
    rank_projector,
    rank_projector_attack,
    rank_ratio,
    swap_or_attack,
    sym_basis,
    sym_dim,
)
from qhrolab.linalg import (
    UnitaryMatrix,
    choi_state,
    haar_unitary,
    pauli_string,
    trial_rng,
)


def test_choi_from_copies_single_call():
    rng = trial_rng(41)
    n = 2
    u = haar_unitary(2**n, rng)
    a = haar_unitary(2**n, rng)
    b = haar_unitary(2**n, rng)
    circ = NonAdaptiveCircuit(a, b, 1)
    made = choi_from_copies(circ, [choi_state(u)])
    direct = choi_state(UnitaryMatrix(b.entries @ u.entries @ a.entries))
    f = abs(np.vdot(made.amplitudes, direct.amplitudes)) ** 2
    assert f >= 1.0 - 1e-9


def test_choi_from_copies_two_calls():
    rng = trial_rng(43)
    n = 1
    u = haar_unitary(2, rng)
    a = haar_unitary(4, rng)
    b = haar_unitary(4, rng)
    circ = NonAdaptiveCircuit(a, b, 2)
    made = choi_from_copies(circ, [choi_state(u)] * 2)
    direct = choi_state(UnitaryMatrix(b.entries @ np.kron(u.entries, u.entries) @ a.entries))
    assert abs(np.vdot(made.amplitudes, direct.amplitudes)) ** 2 >= 1.0 - 1e-9


def test_choi_from_copies_validation():
    rng = trial_rng(44)
    u = haar_unitary(2, rng)
    circ = NonAdaptiveCircuit(u, u, 2)
    with pytest.raises(ValueError):
        choi_from_copies(circ, [choi_state(u)])
    with pytest.raises(ValueError):
        NonAdaptiveCircuit(u, haar_unitary(4, rng), 1)


def test_swap_or_attack_extremes():
    rng = trial_rng(47)
    u = haar_unitary(4, rng)
    phi = choi_state(u.entries[None])  # a stack of one trial
    hit = swap_or_attack(phi, {0: phi}, 8, [rng])
    assert hit.success[0] == 1.0 and abs(hit.fidelities[0][0] - 1.0) < 1e-12
    empty = swap_or_attack(phi, {}, 8, [rng])
    assert empty.success[0] == 0.0
    # an orthogonal candidate rarely survives 16 tests
    other = choi_state(pauli_string("X", 3, 2, 2).entries[None])
    miss = swap_or_attack(other, {0: phi}, 16, [rng])
    assert miss.fidelities[0][0] < 0.5


def test_sym_dim_values():
    assert sym_dim(5, 0) == 1
    assert sym_dim(5, 1) == 5
    assert sym_dim(2, 2) == 3
    assert sym_dim(4, 3) == math.comb(6, 3)
    with pytest.raises(ValueError):
        sym_dim(0, 1)


def test_sym_basis_orthonormal():
    for d, s in ((2, 2), (3, 2), (2, 3)):
        b = sym_basis(d, s)
        assert b.shape == (d**s, sym_dim(d, s))
        gram = b.conj().T @ b
        assert np.max(np.abs(gram - np.eye(b.shape[1]))) < 1e-10


def test_rank_ratio_degenerate_and_monotone():
    assert rank_ratio(3, 2, 0, 0) == Fraction(8)
    assert rank_ratio(3, 2, 0, 5) == Fraction(8)
    assert rank_ratio(3, 2, 5, 0) == Fraction(8)
    vals = [rank_ratio(2, 1, ell, 4) for ell in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1


def test_rank_projector_identity_rotation():
    # a single identity rotation reproduces the symmetric-subspace projector
    d = 4
    base = sym_basis(d, 2)
    pi = rank_projector(1, 1, 1, [np.eye(d, dtype=complex)])
    expect = base @ base.conj().T
    assert np.max(np.abs(pi - expect)) < 1e-8
    assert np.max(np.abs(pi @ pi - pi)) <= 1e-8


def test_rank_projector_attack_separates():
    def fam(k):
        return (pauli_string("X", k, 1, 1), pauli_string("Z", k, 1, 1))

    rep = rank_projector_attack(1, 1, 1, 3, fam, 30, 123)
    f = rep.fidelities
    assert f["projector_idempotency"] <= 1e-8
    # keyed copies lie inside the measured support exactly
    assert f["keyed_acceptance"] >= 1.0 - 1e-9
    assert f["null_acceptance"] <= f["rank_bound"] + 3.0 * f["null_stderr"]
    assert rep.success > 0.1


def test_rank_projector_attack_caps():
    def fam(k):
        return (pauli_string("X", k, 1, 1), pauli_string("Z", k, 1, 1))

    with pytest.raises(ValueError):
        rank_projector_attack(2, 1, 2, 2, fam, 1, 0)
    with pytest.raises(ValueError):
        rank_projector_attack(1, 5, 1, 1, fam, 1, 0)
