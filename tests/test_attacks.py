"""Attack primitives: Choi-copy preparation, SWAP key search, rank measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qhrolab.attacks import (
    choi_from_copies,
    rank_projector,
    rank_projector_attack,
    rank_ratio,
    swap_or_attack,
    sym_basis,
    sym_dim,
)
from qhrolab.linalg import (
    choi_state,
    haar_unitary,
    pauli_string,
    trial_rng,
)


def test_choi_from_copies_single_call():
    rng = trial_rng(41)
    n = 2
    u, a, b = (haar_unitary(2**n, rng).entries for _ in range(3))
    made = choi_from_copies(a, b, [choi_state(u[None])])
    direct = choi_state(b @ u @ a)
    f = abs(np.vdot(made[0], direct)) ** 2
    assert f >= 1.0 - 1e-9


def test_choi_from_copies_two_calls():
    rng = trial_rng(43)
    u = haar_unitary(2, rng).entries
    a, b = (haar_unitary(4, rng).entries for _ in range(2))
    made = choi_from_copies(a, b, [choi_state(u[None])] * 2)
    direct = choi_state(b @ np.kron(u, u) @ a)
    assert abs(np.vdot(made[0], direct)) ** 2 >= 1.0 - 1e-9


def test_choi_from_copies_validation():
    rng = trial_rng(44)
    u = haar_unitary(2, rng).entries
    u4 = haar_unitary(4, rng).entries
    phi = choi_state(u[None])
    with pytest.raises(ValueError, match="t\\*n"):
        choi_from_copies(u4, u4, [phi])
    with pytest.raises(ValueError, match="pre/post"):
        choi_from_copies(u, u4, [phi])
    with pytest.raises(ValueError, match="one dimension"):
        choi_from_copies(u4, u4, [phi, choi_state(u4[None])])


def test_choi_from_copies_rejects_no_copies():
    with pytest.raises(ValueError, match="at least one copy"):
        choi_from_copies(np.eye(1), np.eye(1), [])


@pytest.mark.parametrize("length", [2, 3, 8, 12])
def test_choi_from_copies_rejects_a_length_not_4_to_the_n(length):
    # 3 and 12 are not powers of two; 2 and 8 are, on an odd qubit count
    copy = np.full((1, length), length**-0.5, dtype=complex)
    for a in (np.eye(2), np.eye(length)):
        with pytest.raises(ValueError, match="4\\^n"):
            choi_from_copies(a, a, [copy])


def test_swap_or_attack_extremes():
    rng = trial_rng(47)
    phi = choi_state(haar_unitary(4, rng).entries[None])  # a stack of one trial
    fids, won = swap_or_attack(phi, phi[None], 8, [rng])
    assert fids.shape == (1, 1) and won.shape == (1,)
    assert won[0] == 1.0 and abs(fids[0, 0] - 1.0) < 1e-12
    _, won = swap_or_attack(phi, phi[None][:0], 8, [rng])  # no keys
    assert won[0] == 0.0
    # an orthogonal candidate rarely survives 16 tests
    other = choi_state(pauli_string("X", 3, 2, 2)[None])
    fids, _ = swap_or_attack(other, phi[None], 16, [rng])
    assert fids[0, 0] < 0.5


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


def xz_family(m=1, lam=1):
    """The (A_k, B_k) = (X^k, Z^k) stacks over every key."""
    return tuple(np.array([pauli_string(kind, k, lam, m) for k in range(2**lam)]) for kind in "XZ")


def test_rank_projector_attack_separates():
    f = rank_projector_attack(1, 1, 1, 3, *xz_family(), 30, 123)
    assert f["projector_idempotency"] <= 1e-8
    # keyed copies lie inside the measured support exactly
    assert f["keyed_acceptance"] >= 1.0 - 1e-9
    assert f["null_acceptance"] <= f["rank_bound"] + 3.0 * f["null_stderr"]
    assert f["advantage"] > 0.1


def test_rank_projector_attack_caps():
    a_k, b_k = xz_family()
    with pytest.raises(ValueError, match="12-qubit"):
        rank_projector_attack(2, 1, 2, 2, *xz_family(2), 1, 0)
    with pytest.raises(ValueError, match="key space"):
        rank_projector_attack(1, 5, 1, 1, *xz_family(1, 1), 1, 0)
    with pytest.raises(ValueError, match="trials"):
        rank_projector_attack(1, 1, 1, 3, a_k, b_k, 0, 0)
    with pytest.raises(ValueError, match="per key"):
        rank_projector_attack(1, 1, 1, 3, a_k[:1], b_k[:1], 1, 0)
    with pytest.raises(ValueError, match="not unitary"):
        rank_projector_attack(1, 1, 1, 3, a_k, 2 * b_k, 1, 0)
