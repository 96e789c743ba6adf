"""Seeded trials run as byte-bounded stacks, bitwise to the per-trial loops they replaced.

The per-trial loops of exp_pru1 break mode, exp_spru's second-moment check and
attacks.rank_projector_attack are kept here as they were, with the
single-trial primitives they called, as the differential oracle of the
stacked path. Every comparison runs at the module's stack bound and again
with one trial per stack.
"""

import math

import numpy as np
import pytest

from qhrolab import attacks, constructions, experiments, harness
from qhrolab.attacks import (
    AttackReport,
    NonAdaptiveCircuit,
    rank_projector,
    rank_projector_attack,
    rank_ratio,
    swap_or_attack,
)
from qhrolab.experiments import EXPERIMENTS, ExperimentReport, _check, _check_ge, run_experiment
from qhrolab.linalg import (
    StateVector,
    UnitaryMatrix,
    apply_gate,
    choi_state,
    epr_state,
    haar_unitaries,
    haar_unitary,
    pauli_string,
    qubits_first,
    trial_rng,
)

# ---------------------------------------------------------------- the per-trial oracle


def old_choi_state(u):
    n = u.qubit_count
    omega = epr_state(n).amplitudes.reshape(2**n, 2**n)
    return StateVector((u.entries @ omega.T).T.reshape(-1), 2 * n)


def old_choi_from_copies(circuit, copies):
    n = copies[0].qubit_count // 2
    t = circuit.t
    vec = np.array([1.0], dtype=complex)
    for c in copies:
        vec = np.kron(vec, c.amplitudes)
    total = 2 * n * t
    left = [2 * n * i + j for i in range(t) for j in range(n)]
    right = [2 * n * i + n + j for i in range(t) for j in range(n)]
    vec = apply_gate(vec, circuit.a.entries.T, left, total)
    vec = apply_gate(vec, circuit.b.entries, right, total)
    mat, _ = qubits_first(vec, left + right, total)
    return StateVector(mat.reshape(-1), total)


def old_swap_or_attack(oracle_choi, candidates, copies_per_key, rng):
    """(fidelities, success) of one trial."""
    fids = {}
    accept = False
    for k, cand in candidates.items():
        f = abs(np.vdot(cand.amplitudes, oracle_choi.amplitudes)) ** 2
        fids[k] = float(f)
        p = 0.5 * (1.0 + f)
        if np.all(rng.random(copies_per_key) < p):
            accept = True
    return fids, 1.0 if accept else 0.0


def old_pru1_break(p, calls):
    """The report; each SWAP-test search appends its (fidelities, success) to calls."""
    seed, n, lam, trials, copies_per_key = p.seed, p.n, p.lam, p.trials, p.copies_per_key
    rep = ExperimentReport("exp_pru1", seed, p.recorded())
    rep.notes.append("key search by per-key SWAP-test batteries on prepared Choi states")
    rep.notes.append(
        "the two-query arm uses the best single-call preparation (pre X^k); the construction is not of that form"
    )
    ident = UnitaryMatrix(np.eye(2**n))
    acc = {("one", "real"): 0, ("one", "null"): 0, ("two", "real"): 0, ("two", "null"): 0}
    for tr in range(trials):
        rng = trial_rng(seed, tr)
        u = haar_unitary(2**n, rng)
        v = haar_unitary(2**n, rng)
        kstar = int(rng.integers(0, 2**lam))
        phi_u = old_choi_state(u)
        cands_one = {}
        cands_two = {}
        for k in range(2**lam):
            zk = pauli_string("Z", k, lam, n)
            xk = pauli_string("X", k, lam, n)
            cands_one[k] = old_choi_from_copies(NonAdaptiveCircuit(ident, zk, 1), [phi_u])
            cands_two[k] = old_choi_from_copies(NonAdaptiveCircuit(xk, ident, 1), [phi_u])
        o_one = old_choi_state(UnitaryMatrix(pauli_string("Z", kstar, lam, n).entries @ u.entries))
        o_two = old_choi_state(UnitaryMatrix(u.entries @ pauli_string("X", kstar, lam, n).entries @ u.entries))
        o_null = old_choi_state(v)
        for arm, cands, oracle in (
            ("one", cands_one, o_one),
            ("one", cands_one, o_null),
            ("two", cands_two, o_two),
            ("two", cands_two, o_null),
        ):
            which = "real" if oracle is not o_null else "null"
            calls.append(old_swap_or_attack(oracle, cands, copies_per_key, rng))
            acc[(arm, which)] += calls[-1][1]
    adv_one = (acc[("one", "real")] - acc[("one", "null")]) / trials
    adv_two = (acc[("two", "real")] - acc[("two", "null")]) / trials
    entry = rep.add_point({"n": n, "lam": lam, "copies_per_key": copies_per_key})
    _check_ge(entry, "advantage_one_query_arm", "MC", adv_one, 0.9)
    _check(entry, "advantage_two_query_arm", "MC", adv_two, 0.2)
    return rep


def old_exp_spru(p):
    seed, n_block, overlap, lam_small, trials = p.seed, p.n_block, p.overlap, p.lam_small, p.trials
    layout = constructions.spru(n_block, overlap, lam_small)
    d = 2**layout.total_qubits
    rep = ExperimentReport("exp_spru", seed, p.recorded())
    rep.notes.append("gluing second-moment check; the bound 5k^2/2^|B| is vacuous at desk scale and labeled so")

    rng = trial_rng(seed, 60_000)
    u = haar_unitary(2**n_block, rng)
    m0 = constructions.spru_concrete(layout, u, 0, 0, 0)
    rest = 2 ** (layout.total_qubits - n_block)
    p4 = np.linalg.matrix_power(u.entries, 4)
    direct = np.kron(np.eye(rest), p4) @ np.kron(p4, np.eye(rest))
    entry = rep.add_point({"check": "zero_keys"})
    _check(entry, "zero_key_composition", "EXACT", float(np.max(np.abs(m0.entries - direct))), 1e-9)

    probe_ops = []
    prng = trial_rng(seed, 60_001)
    for _ in range(p.probes):
        a = prng.standard_normal((d * d, d * d)) + 1j * prng.standard_normal((d * d, d * d))
        h = (a + a.conj().T) / 2
        probe_ops.append(h / np.linalg.norm(h))

    def haar_twirl(x):
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1.0
        eye = np.eye(d * d)
        psym = (eye + swap) / 2
        panti = (eye - swap) / 2
        out = np.zeros_like(x, dtype=complex)
        for p in (psym, panti):
            dp = np.trace(p).real
            out += np.trace(p @ x) / dp * p
        return out

    acc = [np.zeros((d * d, d * d), dtype=complex) for _ in probe_ops]
    for tr in range(trials):
        trng = trial_rng(seed, 70_000 + tr)
        ua = haar_unitary(2**n_block, trng)
        ub = haar_unitary(2**n_block, trng)
        w = np.kron(np.eye(rest), ub.entries) @ np.kron(ua.entries, np.eye(rest))
        w2 = np.kron(w, w)
        for i, x in enumerate(probe_ops):
            acc[i] += w2 @ x @ w2.conj().T
    dist = 0.0
    for i, x in enumerate(probe_ops):
        diff = acc[i] / trials - haar_twirl(x)
        dist = max(dist, float(np.linalg.norm(diff, 2)))
    entry = rep.add_point({"check": "second_moment"})
    bound = constructions.gluing_bound(2, overlap)
    _check(entry, "moment_distance_vs_gluing_bound", "ASYMPTOTIC", dist, bound)
    entry["point"]["bound_is_vacuous"] = bound >= 1.0
    entry["point"]["arithmetic_output_qubits_example"] = constructions.stretch_output_qubits(8, 4, 2)
    entry["point"]["arithmetic_key_bits_example"] = constructions.stretch_key_bits(4, 2)
    return rep


def old_rank_projector_attack(m, lam, ell, t, circuit_family, trials, master_seed):
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
        phi_u = old_choi_state(u).amplitudes
        phi_g = old_choi_state(g).amplitudes
        phi_v = old_choi_state(v).amplitudes
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


# ---------------------------------------------------------------- stacked vs per-trial


@pytest.fixture(params=["module bound", "one trial per stack"])
def stacks(request, monkeypatch):
    """The sizes of the Haar stacks drawn, with harness._STACK_BYTES at the module's bound or at 1."""
    if request.param == "one trial per stack":
        monkeypatch.setattr(harness, "_STACK_BYTES", 1)
    sizes = []

    def spy(dim, rngs):
        sizes.append(len(rngs))
        return haar_unitaries(dim, rngs)

    for module in (experiments, attacks):
        monkeypatch.setattr(module, "haar_unitaries", spy)
    yield sizes
    assert sizes and sizes[0] == 1
    assert max(sizes) > 1 if request.param == "module bound" else set(sizes) == {1}


def family(k):
    return (pauli_string("X", k, 1, 1), pauli_string("Z", k, 1, 1))


# lam = 1 with two tests per key leaves every search's outcome to its draws
@pytest.mark.parametrize("params", [{"seed": 3}, {"seed": 4}, {"seed": 5, "n": 2, "lam": 1, "copies_per_key": 2}])
def test_pru1_break_is_bitwise_the_per_trial_loop(params, stacks, monkeypatch):
    params = {**params, "mode": "break", "trials": 30}
    calls, old_calls = [], []

    def spy(*args):
        calls.append(swap_or_attack(*args))
        return calls[-1]

    monkeypatch.setattr(attacks, "swap_or_attack", spy)
    rep = run_experiment("exp_pru1", params)
    old = old_pru1_break(EXPERIMENTS["exp_pru1"].schema.parse(params), old_calls)
    assert rep.to_json() == old.to_json()
    # each trial's four searches, in order: fidelities by key and success
    fids, success = [], []
    for i in range(0, len(calls), 4):
        fids.append(np.stack([np.stack(list(c.fidelities.values()), axis=1) for c in calls[i : i + 4]], axis=1))
        success.append(np.stack([c.success for c in calls[i : i + 4]], axis=1))
    fids, success = np.concatenate(fids), np.concatenate(success)
    assert fids.tobytes() == np.array([list(f.values()) for f, _ in old_calls]).tobytes()
    assert success.tobytes() == np.array([s for _, s in old_calls]).tobytes()
    assert 0 < np.mean(success) < 1


@pytest.mark.parametrize("trials", [5, 16])
def test_spru_is_bitwise_the_per_trial_loop(trials, stacks):
    params = {"seed": 8, "trials": trials}
    old = old_exp_spru(EXPERIMENTS["exp_spru"].schema.parse(params))
    assert run_experiment("exp_spru", params).to_json() == old.to_json()


@pytest.mark.parametrize("trials", [30, 301])
def test_rank_projector_attack_is_bitwise_the_per_trial_loop(trials, stacks):
    rep = rank_projector_attack(1, 1, 1, 3, family, trials, 123)
    old = old_rank_projector_attack(1, 1, 1, 3, family, trials, 123)
    assert np.array(list(rep.fidelities.values())).tobytes() == np.array(list(old.fidelities.values())).tobytes()
    assert (rep.params, rep.success) == (old.params, old.success)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_state_of_a_stack_is_bitwise_each_matrix(n):
    us = haar_unitaries(2**n, [trial_rng(7, t) for t in range(5)])
    stack = choi_state(us)
    assert stack.shape == (5, 4**n)
    for u, vec in zip(us, stack):
        one = choi_state(UnitaryMatrix(u)).amplitudes
        assert vec.tobytes() == one.tobytes() == old_choi_state(UnitaryMatrix(u)).amplitudes.tobytes()
