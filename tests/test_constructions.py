"""Keyed constructions: descriptor/matrix agreement and register bookkeeping."""

import tracemalloc

import numpy as np
import pytest

from qhrolab.constructions import (
    concrete_oracle,
    gluing_bound,
    haar_slot,
    prfs_output,
    pru_one_query,
    pru_two_query,
    spru,
    spru_concrete,
    stretch_key_bits,
    stretch_output_qubits,
)
from qhrolab.linalg import haar_unitaries, pauli_string, trial_rng
from qhrolab.relstate import CFParams


def test_two_query_concrete_matrix():
    rng = trial_rng(1)
    n, lam = 3, 2
    u = haar_unitaries(2**n, [rng])[0]
    desc = pru_two_query(n, lam)
    for k in (0, 3):
        g = concrete_oracle(desc, u, k)
        expect = u @ pauli_string("X", k, lam, n) @ u
        assert np.max(np.abs(g - expect)) < 1e-10
    with pytest.raises(ValueError):
        pru_two_query(2, 3)
    with pytest.raises(ValueError):
        pru_two_query(2, 0)


def test_one_query_concrete_matrix():
    rng = trial_rng(2)
    n, lam = 2, 2
    u = haar_unitaries(2**n, [rng])[0]
    desc = pru_one_query(n, lam)
    g = concrete_oracle(desc, u, 1)
    expect = pauli_string("Z", 1, lam, n) @ u
    assert np.max(np.abs(g - expect)) < 1e-10
    with pytest.raises(ValueError):
        pru_one_query(2, 3)


@pytest.mark.parametrize("make", [pru_one_query, pru_two_query])
def test_concrete_oracle_builds_only_the_given_keys(make):
    # at n = lam = 8 all 256 Pauli layers per key layer traced 514 MiB for this 2-MiB stack
    n, k = 8, [5, 200]
    desc = make(n, n)
    u = haar_unitaries(2**n, [trial_rng(70), trial_rng(71)])
    tracemalloc.start()
    try:
        g = concrete_oracle(desc, u, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for t in range(2):  # bit for bit the per-trial product
        expect = np.eye(2**n, dtype=complex)
        for step in desc.steps:
            expect = (u[t] if step[0] == "pr" else pauli_string(step[1], k[t], n, n)) @ expect
        assert g[t].tobytes() == expect.tobytes()


def test_haar_slot_concrete_is_u():
    rng = trial_rng(3)
    u = haar_unitaries(4, [rng])[0]
    g = concrete_oracle(haar_slot(2), u)
    assert np.max(np.abs(g - u)) < 1e-12
    with pytest.raises(ValueError):
        concrete_oracle(haar_slot(3), u)


def test_descriptor_metadata():
    cf = CFParams(1, 2, 2)
    desc = pru_one_query(2, 2, cf=cf)
    assert desc.record_slots() == (0,)
    assert desc.steps == (("pr", 0, cf), ("pauli", "Z"))
    assert pru_two_query(3, 2).record_slots() == (0, 0)
    assert haar_slot(2, slot=1, cf=cf).record_slots() == (1,)


def test_prs_output_column():
    rng = trial_rng(4)
    n, lam = 3, 2
    u = haar_unitaries(2**n, [rng])[0]
    for k in range(4):
        out = prfs_output(u, k, 0, n, lam, 0)
        assert np.max(np.abs(out - u[:, k << (n - lam)])) < 1e-12
    with pytest.raises(ValueError):
        prfs_output(u, 4, 0, n, lam, 0)
    with pytest.raises(ValueError):
        prfs_output(u, 0, 0, 2, 3, 0)


def test_prfs_output_column():
    rng = trial_rng(5)
    n, lam, m = 4, 2, 1
    u = haar_unitaries(2**n, [rng])[0]
    out = prfs_output(u, 2, 1, n, lam, m)
    x = (2 << m | 1) << (n - lam - m)
    assert np.max(np.abs(out - u[:, x])) < 1e-12
    with pytest.raises(ValueError):
        prfs_output(u, 0, 0, 2, 1, 2)
    with pytest.raises(ValueError):
        prfs_output(u, 0, 2, n, lam, m)


def test_spru_layout():
    lay = spru(3, 1, 2)
    assert lay.total_qubits == 5
    with pytest.raises(ValueError):
        spru(3, 0, 1)
    with pytest.raises(ValueError):
        spru(3, 3, 1)
    with pytest.raises(ValueError):
        spru(8, 1, 1)
    with pytest.raises(ValueError):
        spru(3, 1, 4)


def test_spru_concrete_zero_keys():
    # with all keys zero each arm collapses to u^4 on its block
    rng = trial_rng(6)
    lay = spru(2, 1, 1)
    u = haar_unitaries(4, [rng])[0]
    w = spru_concrete(lay, u, 0, 0, 0)
    p4 = np.linalg.matrix_power(u, 4)
    expect = np.kron(np.eye(2), p4) @ np.kron(p4, np.eye(2))
    assert np.max(np.abs(w - expect)) < 1e-9
    with pytest.raises(ValueError):
        spru_concrete(lay, haar_unitaries(8, [rng])[0], 0, 0, 0)
    with pytest.raises(ValueError, match="not unitary"):
        spru_concrete(lay, 2 * np.eye(4), 0, 0, 0)
    # a zero-bit inner key allows only k = 0; a nonzero key used to act on the block's top qubit
    lay0 = spru(2, 1, 0)
    assert np.max(np.abs(spru_concrete(lay0, u, 0, 0, 0) - expect)) < 1e-9
    for keys in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="key out of range"):
            spru_concrete(lay0, u, *keys)


def test_spru_concrete_keyed_arm():
    rng = trial_rng(7)
    lay = spru(2, 1, 1)
    u = haar_unitaries(4, [rng])[0]
    w = spru_concrete(lay, u, 1, 1, 0)
    block = u @ pauli_string("X", 1, 1, 2) @ u
    x1 = pauli_string("X", 1, 1, 2)
    arm_ab = block @ x1 @ block
    arm_bc = block @ block
    expect = np.kron(np.eye(2), arm_bc) @ np.kron(arm_ab, np.eye(2))
    assert np.max(np.abs(w - expect)) < 1e-9


def test_stretch_arithmetic():
    assert stretch_output_qubits(8, 4, 2) == 20
    assert stretch_output_qubits(8, 4, 0) == 8
    assert stretch_key_bits(4, 2) == 36
    assert stretch_key_bits(1, 3) == 7
    with pytest.raises(ValueError):
        stretch_output_qubits(4, 4, 1)


def test_gluing_bound():
    assert gluing_bound(2, 2) == 5.0
    assert gluing_bound(2, 10) == 20.0 / 1024.0
    # tightens exponentially in the overlap register
    assert gluing_bound(3, 8) < gluing_bound(3, 4)
