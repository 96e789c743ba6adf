"""Dense substrate tests: conventions, identities, and statistical sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhrolab.harness import view_of_state
from qhrolab.linalg import (
    QUBIT_CAP,
    _trace_distance,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    apply_gate,
    apply_unitary,
    choi_state,
    haar_unitaries,
    haar_unitary,
    pauli_string,
    trace_distance,
    trial_rng,
)


def rand_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v), dim.bit_length() - 1)


def rand_density(n, rng, rank=2):
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for _ in range(rank):
        v = rand_state(2**n, rng).amplitudes
        acc += np.outer(v, v.conj())
    return DensityMatrix(acc / rank)


def test_basis_state_big_endian():
    # qubit 0 is the most significant bit: X on qubit 0 takes |00> to |10>
    # (index 2), and X on qubit 1 takes it to |01> (index 1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    zero = np.eye(4)[0]
    assert np.array_equal(apply_gate(zero, x, [0], 2), np.eye(4)[2])
    assert np.array_equal(apply_gate(zero, x, [1], 2), np.eye(4)[1])
    # a two-qubit gate's index MSB is targets[0]: CNOT controlled by qubit 1
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert np.array_equal(apply_gate(np.eye(4)[1], cnot, [1, 0], 2), np.eye(4)[3])
    assert np.array_equal(apply_gate(np.eye(4)[2], cnot, [1, 0], 2), np.eye(4)[2])


def full_gate_matrix(gate, targets, n):
    """The 2^n x 2^n matrix of a gate on `targets`: P^T (gate kron I) P, where P
    reorders the qubits so that the targets come first, in order."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    x = np.arange(2**n)
    bits = (x[:, None] >> (n - 1 - np.array(order))) & 1
    y = bits @ (1 << np.arange(n - 1, -1, -1))
    perm = np.zeros((2**n, 2**n))
    perm[y, x] = 1.0
    return perm.T @ np.kron(gate, np.eye(2 ** (n - len(targets)))) @ perm


def test_apply_gate_matches_full_matrix():
    rng = trial_rng(3)
    for n, targets in [(3, [1]), (4, [0, 2]), (5, [4, 1]), (3, [0, 1, 2]), (3, [2, 0, 1])]:
        vec = rand_state(2**n, rng).amplitudes
        g = haar_unitary(2 ** len(targets), rng).entries
        out = apply_gate(vec, g, targets, n)
        assert np.max(np.abs(out - full_gate_matrix(g, targets, n) @ vec)) < 1e-12


def test_apply_gate_rejects_invalid_targets():
    # numpy would read -1 as the last axis; the kernel must refuse it
    x = UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    psi = StateVector(np.eye(8)[0], 3)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"target qubit {bad} "):
            apply_unitary(psi, x, [bad])
    with pytest.raises(ValueError, match="target qubit 1 "):
        apply_gate(psi.amplitudes, np.eye(4), [1, 1], 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_haar_unitary_is_unitary(seed, dim):
    u = haar_unitary(dim, trial_rng(seed)).entries
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-9


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_stacked_haar_draw_is_bitwise_single_draws(dim):
    def single(rng):
        # one Ginibre + QR + phase-fix draw, as a trial drew it before draws were stacked
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    stacked = [trial_rng(31, t) for t in range(5)]
    singles = [trial_rng(31, t) for t in range(5)]
    stack = haar_unitaries(dim, stacked)
    assert stack.shape == (5, dim, dim)
    for t, rng in enumerate(singles):
        assert stack[t].tobytes() == single(rng).tobytes()
        assert haar_unitary(dim, trial_rng(31, t)).entries.tobytes() == stack[t].tobytes()
    # each generator is left where a single draw leaves it
    assert [r.integers(0, 2**62) for r in stacked] == [r.integers(0, 2**62) for r in singles]


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))


class Unconvertible:
    def __array__(self, *args, **kwargs):
        raise AssertionError("amplitudes converted before the cap check")


def test_caps():
    with pytest.raises(ValueError):
        StateVector(np.zeros(2**25), 25)
    with pytest.raises(ValueError):
        # an oversized register is refused before its amplitudes are copied
        StateVector(Unconvertible(), 25)
    with pytest.raises(ValueError, match="cap"):
        # the cap check fires before the Hermitian check; a zero-strided
        # view stands in for the oversized array
        DensityMatrix(np.broadcast_to(np.zeros(1, dtype=complex), (2 ** (QUBIT_CAP + 1),) * 2))


def test_sizes_come_from_the_array():
    assert UnitaryMatrix(np.eye(8)).qubit_count == 3
    assert UnitaryMatrix(np.eye(3)).qubit_count is None
    assert DensityMatrix(np.eye(4) / 4).qubit_count == 2
    for bad in (np.eye(3) / 3, np.zeros((2, 4)), np.zeros(4), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="power-of-two side"):
            DensityMatrix(bad)
    with pytest.raises(TypeError):
        UnitaryMatrix(np.eye(2), 1)


def test_pauli_string_action():
    n, lam = 3, 2
    for k in range(4):
        xk = UnitaryMatrix(pauli_string("X", k, lam, n))
        out = apply_unitary(StateVector(np.eye(2**n)[0], n), xk)
        assert abs(out.amplitudes[k << (n - lam)] - 1.0) < 1e-12
        zk = pauli_string("Z", k, lam, n)
        assert np.allclose(np.abs(np.diagonal(zk)), 1.0)
        # Z^k is diagonal with signs, trivial on the suffix
        assert zk[1, 1] == zk[0, 0]
    with pytest.raises(ValueError):
        pauli_string("Y", 0, 1, 1)
    with pytest.raises(ValueError):
        pauli_string("X", 4, 2, 3)
    with pytest.raises(ValueError):
        pauli_string("X", 0, 3, 2)
    # a key of no bits is 0; a negative key length holds no key (it gave the identity)
    assert np.array_equal(pauli_string("Z", 0, 0, 2), np.eye(4))
    for k, lam in ((0, -1), (1, 0), (1.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="key out of range"):
            pauli_string("X", k, lam, 2)
    with pytest.raises(ValueError, match="cap"):
        pauli_string("X", 0, 1, QUBIT_CAP + 1)


def test_pauli_xz_algebra():
    # Z^k X^k = (-1)^{|k|} X^k Z^k on the key prefix
    n, lam, k = 2, 2, 3
    x = pauli_string("X", k, lam, n)
    z = pauli_string("Z", k, lam, n)
    sign = (-1.0) ** bin(k).count("1")
    assert np.allclose(z @ x, sign * x @ z)


def epr_state(n):
    """|Omega> = 2^{-n/2} sum_x |x>|x> on 2n qubits."""
    return StateVector(np.eye(2**n).ravel() / np.sqrt(2**n), 2 * n)


def test_epr_and_choi():
    om = epr_state(2)
    assert abs(np.linalg.norm(om.amplitudes) - 1.0) < 1e-12
    assert abs(om.amplitudes[0b0101] - 0.5) < 1e-12
    assert np.max(np.abs(choi_state(np.eye(4)) - om.amplitudes)) < 1e-12
    # choi_state(u) applies u to the right half only
    rng = trial_rng(7)
    u = haar_unitary(4, rng)
    direct = apply_unitary(epr_state(2), u, [2, 3])
    assert np.max(np.abs(choi_state(u.entries) - direct.amplitudes)) < 1e-12


def test_ricochet_identity():
    # (A^T x I)|Omega> = (I x A)|Omega>, 100 Haar samples, up to 4 oracle qubits
    rng = trial_rng(11)
    for i in range(100):
        n = 1 + i % 4
        a = haar_unitary(2**n, rng)
        at = UnitaryMatrix(a.entries.T)
        om = epr_state(n)
        lhs = apply_unitary(om, at, list(range(n)))
        rhs = apply_unitary(om, a, list(range(n, 2 * n)))
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) <= 1e-10


# the partial trace of a pure state is harness.view_of_state, the view of
# every Monte Carlo trial


def test_partial_trace_product_state():
    rng = trial_rng(5)
    a = rand_state(4, rng)
    b = rand_state(2, rng)
    ab = StateVector(np.kron(a.amplitudes, b.amplitudes), 3)
    left = view_of_state(ab.amplitudes, [0, 1])
    right = view_of_state(ab.amplitudes, [2])
    assert np.max(np.abs(left.entries - a.density().entries)) < 1e-10
    assert np.max(np.abs(right.entries - b.density().entries)) < 1e-10
    assert abs(np.trace(left.entries) - 1.0) < 1e-10


def test_partial_trace_keep_order():
    rng = trial_rng(6)
    psi = rand_state(8, rng)
    swapped = view_of_state(psi.amplitudes, [2, 0])
    straight = view_of_state(psi.amplitudes, [0, 2]).entries.reshape(2, 2, 2, 2)
    # keep=[2,0] permutes the two kept qubits
    expected = np.transpose(straight, (1, 0, 3, 2)).reshape(4, 4)
    assert np.max(np.abs(swapped.entries - expected)) < 1e-10
    with pytest.raises(ValueError):
        view_of_state(psi.amplitudes, [0, 0])
    for bad in (np.ones(6), np.ones((2, 4))):
        with pytest.raises(ValueError, match="2\\^q amplitudes"):
            view_of_state(bad, [0])


def test_trace_distance_metric():
    rng = trial_rng(9)
    for _ in range(50):
        a, b, c = (rand_density(2, rng) for _ in range(3))
        assert trace_distance(a, a) < 1e-10
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-10
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
        assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-10


def test_trace_distance_pure_states():
    # TD of pure states is sqrt(1 - |<a|b>|^2)
    rng = trial_rng(10)
    for _ in range(20):
        a = rand_state(4, rng)
        b = rand_state(4, rng)
        td = trace_distance(a.density(), b.density())
        assert abs(td - np.sqrt(1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)) < 1e-9


@pytest.mark.parametrize("d", [2, 4, 16, 64, 256])
def test_trace_distance_reads_only_the_lower_triangle(d):
    # the Monte Carlo path stores lower triangles only: eigvalsh (UPLO='L')
    # must give the same bits whatever the strict upper triangle holds
    rng = trial_rng(17, d)
    a, b = (rand_density(d.bit_length() - 1, rng).entries for _ in range(2))
    upper = np.triu_indices(d, 1)

    def garble(m):
        m = m.copy()
        m[upper] = 1e3 * (rng.standard_normal(len(upper[0])) + 1j * rng.standard_normal(len(upper[0])))
        return m

    want = np.float64(_trace_distance(a, b)).tobytes()
    for ga, gb in ((garble(a), b), (a, garble(b)), (garble(a), garble(b))):
        assert np.float64(_trace_distance(ga, gb)).tobytes() == want


def test_gentle_projection():
    # <psi|Pi|psi> = 1 - eps implies TD(psi, Pi psi / norm) <= sqrt(eps)
    rng = trial_rng(13)
    for _ in range(100):
        psi = rand_state(8, rng)
        cols = haar_unitary(8, rng).entries[:, : int(rng.integers(1, 8))]
        pi = cols @ cols.conj().T
        proj = pi @ psi.amplitudes
        p = float(np.linalg.norm(proj) ** 2)
        if p < 1e-6:
            continue
        after = StateVector(proj / np.sqrt(p), 3)
        td = trace_distance(psi.density(), after.density())
        assert td <= np.sqrt(1.0 - p) + 1e-9


def test_mean_density_one_design():
    # 1e4 Haar dim-4 states average to the maximally mixed state
    rng = trial_rng(17)
    zero = StateVector(np.eye(4)[0], 2)
    samples = np.array([apply_unitary(zero, haar_unitary(4, rng)).amplitudes for _ in range(10_000)])
    mean = DensityMatrix(samples.T @ samples.conj() / len(samples))
    mixed = DensityMatrix(np.eye(4) / 4.0)
    assert trace_distance(mean, mixed) <= 0.05


def test_trial_rng_deterministic():
    a = trial_rng(123, 4).random(5)
    b = trial_rng(123, 4).random(5)
    c = trial_rng(123, 5).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_apply_unitary_targets_match_kron():
    rng = trial_rng(19)
    psi = rand_state(8, rng)
    u = haar_unitary(2, rng)
    out = apply_unitary(psi, u, [1])
    full = np.kron(np.kron(np.eye(2), u.entries), np.eye(2))
    assert np.max(np.abs(out.amplitudes - full @ psi.amplitudes)) < 1e-10
    with pytest.raises(ValueError):
        apply_unitary(psi, u, [0, 1])
