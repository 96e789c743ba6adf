"""Adversary harness: concrete vs purified execution, views, Monte Carlo."""

import dataclasses

import numpy as np
import pytest

from qhrolab import harness
from qhrolab.constructions import haar_slot, pru_two_query
from qhrolab.harness import (
    AdversaryProgram,
    ClassicalConcreteOracle,
    ClassicalPROracle,
    ClassicalQuery,
    Interleave,
    KeyInit,
    QuantumQuery,
    bootstrap_td_pair,
    bootstrap_td_stderr,
    fourier_interleave,
    haar_interleave,
    haar_view_mc,
    key_sliced_view,
    key_slices,
    phased_permutation_interleave,
    reduce_view,
    run_concrete,
    run_pr,
    view_of_state,
)
from qhrolab.linalg import (
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    apply_gate,
    basis_state,
    haar_unitary,
    trace_distance,
    trial_rng,
)
from qhrolab.relstate import (
    CFParams,
    PurifiedState,
    Rel,
    label_rewrite,
    relation_state_vector,
)


def test_program_validation():
    with pytest.raises(ValueError):
        Interleave()
    with pytest.raises(ValueError):
        Interleave(u=UnitaryMatrix(np.eye(2)), sparse_map=(np.arange(2), np.ones(2, dtype=complex)))
    prog = AdversaryProgram(n=2, m_anc=1, steps=(QuantumQuery("U"), QuantumQuery("U")))
    assert prog.reg_qubits == 3


def test_run_concrete_matches_matrix():
    rng = trial_rng(21)
    n = 2
    a = haar_unitary(4, rng)
    u = haar_unitary(4, rng)
    prog = AdversaryProgram(n=n, steps=(Interleave(u=a), QuantumQuery("U")))
    out = run_concrete(prog, {"U": u})
    expect = u.entries @ a.entries[:, 0]
    assert np.max(np.abs(out.amplitudes - expect)) < 1e-10
    with pytest.raises(ValueError):
        run_concrete(prog, {"U": "nope"})


def test_run_concrete_sparse_interleave():
    # sparse phased-permutation layers agree with their dense matrix
    rng = trial_rng(22)
    n = 3
    step = phased_permutation_interleave(n, rng, targets=[0, 2])
    perm, phases = step.sparse_map
    dense = np.zeros((4, 4), dtype=complex)
    dense[perm, np.arange(4)] = phases
    prog_sparse = AdversaryProgram(n=n, steps=(haar_interleave(n, trial_rng(23)), step))
    prog_dense = AdversaryProgram(
        n=n,
        steps=(haar_interleave(n, trial_rng(23)), Interleave(u=UnitaryMatrix(dense), targets=(0, 2))),
    )
    va = run_concrete(prog_sparse, {})
    vb = run_concrete(prog_dense, {})
    assert np.max(np.abs(va.amplitudes - vb.amplitudes)) < 1e-10


@pytest.mark.parametrize("targets", [[0, 2], None])  # partial targets; the full register
def test_apply_sparse_map_is_the_dense_matrix(targets):
    n = 3
    rng = trial_rng(24)
    step = phased_permutation_interleave(n, rng, targets=targets)
    perm, phases = step.sparse_map
    targets = list(step.targets)
    dense = np.zeros((len(perm), len(perm)), dtype=complex)
    dense[perm, np.arange(len(perm))] = phases
    # a purified state over many labels: two recording queries after a dense layer
    prog = AdversaryProgram(n=n, steps=(haar_interleave(n, rng), QuantumQuery("U"), QuantumQuery("U")))
    psi = run_pr(prog, {"U": haar_slot(n)}, (Rel(),))
    assert psi.label_count() > 1
    assert psi.apply_sparse_map(perm, phases, targets).max_diff(psi.apply_matrix(dense, targets)) <= 1e-12


def test_a_program_may_open_with_a_query():
    # an identity first step changes no bit of either executor's result
    n = 2
    steps = (QuantumQuery("U"), phased_permutation_interleave(n, trial_rng(25)), QuantumQuery("U"))
    bare = AdversaryProgram(n=n, steps=steps)
    behind = AdversaryProgram(n=n, steps=(Interleave(u=UnitaryMatrix(np.eye(2**n))), *steps))
    u = haar_unitary(2**n, trial_rng(26))
    assert run_concrete(bare, {"U": u}).amplitudes.tobytes() == run_concrete(behind, {"U": u}).amplitudes.tobytes()
    views = [reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),))).entries for prog in (bare, behind)]
    assert views[0].tobytes() == views[1].tobytes()


def test_classical_concrete_appends_register():
    oracle = ClassicalConcreteOracle(n=2, answer=lambda w: basis_state(2, w))
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 3),))
    out = run_concrete(prog, {"O": oracle})
    assert out.qubit_count == 3
    assert abs(out.amplitudes[0b011] - 1.0) < 1e-12


def test_key_init_expansion():
    prog = AdversaryProgram(n=1, steps=())
    psi = run_pr(prog, {}, (Rel(), KeyInit(2)))
    assert psi.label_count() == 4
    for vec in psi.terms.values():
        assert abs(vec[0] - 0.5) < 1e-12


def test_single_query_view_is_mixed():
    # one recording query from a basis state: the view is I/N exactly
    for n in (1, 2, 3):
        prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),))
        view = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)))
        mixed = DensityMatrix(np.eye(2**n) / 2**n)
        assert trace_distance(view, mixed) <= 1e-10


def test_purified_full_hilbert_cross_check():
    # embed each relation label as its symmetric register state and compare
    # the label-traced view against a genuine partial trace
    n, t = 2, 2
    rng = trial_rng(31)
    prog = AdversaryProgram(
        n=n,
        steps=(haar_interleave(n, rng), QuantumQuery("U"), fourier_interleave((0,)), QuantumQuery("U")),
    )
    psi = run_pr(prog, {"U": haar_slot(n)}, (Rel(),))
    dim_rel = 2 ** (2 * n * t)
    full = np.zeros(2**n * dim_rel, dtype=complex)
    for (rel,), vec in psi.terms.items():
        assert len(rel) == t
        rv = relation_state_vector(rel, n).amplitudes
        for i, a in vec.items():
            full[i * dim_rel : (i + 1) * dim_rel] += a * rv
    rho_full = view_of_state(StateVector.from_array(full), keep=[0, 1])
    rho_lab = reduce_view(psi)
    assert trace_distance(rho_full, rho_lab) <= 1e-9


def test_label_rewrite_invisible_in_view():
    n = 2
    rng = trial_rng(37)
    prog = AdversaryProgram(
        n=n, steps=(haar_interleave(n, rng), QuantumQuery("U"), haar_interleave(n, rng), QuantumQuery("U"))
    )
    psi = run_pr(prog, {"U": haar_slot(n)}, (Rel(),))
    before = reduce_view(psi)
    # every label gains an integer slot holding 7
    moved = label_rewrite(psi, psi.schema + (("int",),), np.hstack([psi.rows, np.full((psi.label_count(), 1), 7)]))
    assert moved.label_count() == psi.label_count()
    after = reduce_view(moved)
    assert np.max(np.abs(before.entries - after.entries)) <= 1e-12


def test_reduce_view_diagnostics_and_cap():
    psi = PurifiedState(13, {(0,): {0: 1.0}})
    with pytest.raises(ValueError):
        reduce_view(psi)
    small = reduce_view(psi, keep=[0, 1])
    assert small.qubit_count == 2 and abs(small.entries[0, 0] - 1.0) < 1e-12
    assert abs(psi.norm_sq() - 1.0) < 1e-12 and psi.label_count() == 1


def test_reduce_view_rejects_invalid_keep():
    psi = PurifiedState(3, {(0,): {0b101: 1.0}})
    for keep in ([0, 0], [-1], [3], [0, 1, 1]):
        with pytest.raises(ValueError):
            reduce_view(psi, keep=keep)
    view = reduce_view(psi, keep=[2, 0])
    assert view.qubit_count == 2 and abs(view.entries[0b11, 0b11] - 1.0) < 1e-12


def test_haar_view_mc_samples_each_trial_once():
    n, trials = 1, 7
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),))
    seen = []

    def sampler(rng):
        seen.append(1)
        return {"U": haar_unitary(2, rng)}

    haar_view_mc(prog, sampler, trials, 3)
    assert len(seen) == trials


def test_recording_bound_small_n():
    # TD(Haar MC mean, recording view) within 2t(t-1)/(N+1) + 3 stderr
    n, t, trials = 2, 2, 2000
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),) * t)
    exact = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)))
    mean, batches = haar_view_mc(prog, lambda rng: {"U": haar_unitary(2**n, rng)}, trials, 71)
    td = trace_distance(mean, exact)
    se = bootstrap_td_stderr(batches, exact, 71)
    assert td <= 2.0 * t * (t - 1) / (2**n + 1) + 3.0 * se


def test_two_oracle_recording_bound():
    # independent oracles share one output space: the two-slot recording
    # tracks a pair of Haar unitaries within 4q(q-1)/(N+1)
    n, trials = 2, 2000
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"), QuantumQuery("V")))
    bindings = {
        "U": haar_slot(n, slot=0, shared_slots=(0, 1)),
        "V": haar_slot(n, slot=1, shared_slots=(0, 1)),
    }
    exact = reduce_view(run_pr(prog, bindings, (Rel(), Rel())))

    def sampler(rng):
        return {"U": haar_unitary(2**n, rng), "V": haar_unitary(2**n, rng)}

    mean, batches = haar_view_mc(prog, sampler, trials, 73)
    td = trace_distance(mean, exact)
    se = bootstrap_td_stderr(batches, exact, 73)
    assert td <= 4.0 * 2 * 1 / (2**n + 1) + 3.0 * se


def test_cf_recording_matches_plain_at_full_prefix():
    # fold-1 with a full-length prefix avoids exactly the image: identical views;
    # shorter prefixes move the view monotonically away
    n = 4
    steps = []
    for _ in range(2):
        steps += [QuantumQuery("U"), fourier_interleave((0, 1))]
    prog = AdversaryProgram(n=n, steps=tuple(steps))
    plain = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)))
    tds = []
    for lam in (2, 3, 4):
        cf = CFParams(1, lam, n)
        v = reduce_view(run_pr(prog, {"U": haar_slot(n, cf=cf)}, (Rel(),)))
        td = trace_distance(plain, v)
        assert td <= 5.0 * 2 ** 2 / 2 ** (lam / 2.0)
        tds.append(td)
    assert tds[2] <= 1e-10
    assert tds[0] > tds[1] > tds[2]


def test_classical_recording_per_w_slots():
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 0), ClassicalQuery("O", 1)))
    # query w records into slot rel_slot[w] and avoids only that slot's outputs
    for slots in ((0, 1), (1, 0)):
        oracle = ClassicalPROracle(n=1, rel_slot=slots, input_of=lambda k, w: w)
        psi = run_pr(prog, {"O": oracle}, (Rel(), Rel()))
        assert psi.n_qubits == 3
        # each slot records independently: (x=w, y) for all four (y0, y1)
        assert len(psi.terms) == 4
        for lab, _ in psi.terms.items():
            for w, slot in enumerate(slots):
                assert len(lab[slot]) == 1 and lab[slot].pairs[0][0] == w


def test_classical_query_without_a_slot_is_refused():
    oracle = ClassicalPROracle(n=1, rel_slot=(0, 1), input_of=lambda k, w: w)
    for w in (2, -1):
        prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", w),))
        with pytest.raises(ValueError, match=f"classical input {w} has no relation slot"):
            run_pr(prog, {"O": oracle}, (Rel(), Rel()))
    # every slot of the tuple must hold a relation
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 1),))
    with pytest.raises(ValueError, match="does not hold a relation"):
        run_pr(prog, {"O": oracle}, (Rel(), 3))


def test_classical_recording_keyed_and_global():
    oracle = ClassicalPROracle(n=1, rel_slot=0, input_of=lambda k, w: k ^ w, key_slot=1)
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 1),))
    psi = run_pr(prog, {"O": oracle}, (Rel([(1, 0)]), 1))
    # key 1, w 1 -> recorded input 0; output must dodge the slot's own image {0}
    ((lab, vec),) = psi.terms.items()
    assert lab == (Rel([(0, 1), (1, 0)]), 1)
    assert abs(vec[0b01] - 1.0) < 1e-12
    # outputs avoid one relation: there is no mode that avoids other slots too
    for avoid in ("global", "per_w_global", "slot"):
        with pytest.raises(TypeError, match="avoid"):
            dataclasses.replace(oracle, avoid=avoid)


def test_haar_view_mc_determinism():
    n, trials = 2, 40
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),))

    def sampler(rng):
        return {"U": haar_unitary(4, rng)}

    m1, b1 = haar_view_mc(prog, sampler, trials, 5)
    m2, _ = haar_view_mc(prog, sampler, trials, 5)
    m3, _ = haar_view_mc(prog, sampler, trials, 6)
    assert np.array_equal(m1.entries, m2.entries)
    assert not np.array_equal(m1.entries, m3.entries)
    with pytest.raises(ValueError):
        haar_view_mc(prog, sampler, 0, 5)
    # bootstrap statistics are seeded too
    ref = DensityMatrix(np.eye(4) / 4)
    assert bootstrap_td_stderr(b1, ref, 9) == bootstrap_td_stderr(b1, ref, 9)
    assert bootstrap_td_pair(b1, b1, 9) == bootstrap_td_pair(b1, b1, 9)


def test_keyed_descriptor_needs_key_slot():
    prog = AdversaryProgram(n=2, steps=(QuantumQuery("G"),))
    with pytest.raises(ValueError):
        run_pr(prog, {"G": pru_two_query(2, 2)}, (Rel(),))


# ------------------------------------------------------------ key slicing


def sliced_setup(n=2, lam=2):
    """A two-query keyed program on a (Rel, key) label and its bindings."""
    prog = AdversaryProgram(n=n, steps=(haar_interleave(n, trial_rng(5)), QuantumQuery("G"), QuantumQuery("U")))
    desc = dataclasses.replace(pru_two_query(n, lam, slot=0), key_slot=1)
    return prog, {"G": desc, "U": haar_slot(n, slot=0)}


def test_key_sliced_view_is_the_key_average():
    prog, bindings = sliced_setup()
    init = (Rel(), KeyInit(2))
    full = run_pr(prog, bindings, init)
    view, mass = key_sliced_view(prog, bindings, init, mask=lambda labels: np.ones(len(labels.rows), dtype=bool))
    assert np.max(np.abs(view.entries - reduce_view(full).entries)) <= 1e-12
    assert abs(mass - full.norm_sq()) <= 1e-12
    assert key_sliced_view(prog, bindings, init, keep=[0])[1] is None


def writes_key(**fields):
    return ClassicalPROracle(n=1, input_of=lambda k, w: k, key_slot=1, **{"rel_slot": 0, **fields})


@pytest.mark.parametrize(
    "oracle",
    [
        writes_key(rel_slot=1),
        writes_key(rel_slot=-2),
        writes_key(rel_slot=(0, 1)),
        haar_slot(2, slot=-2),
        haar_slot(2, slot=1),
        haar_slot(2, slot=0, shared_slots=(0, 1)),
        haar_slot(2, slot=0, cf=CFParams(1, 1, 2), shared_slots=(1, 0)),
        writes_key(rel_slot=(2, -2)),
    ],
)
def test_key_slicing_refuses_oracles_that_write_the_key(oracle):
    prog, bindings = sliced_setup()
    with pytest.raises(ValueError, match="key slot"):
        key_sliced_view(prog, {**bindings, "W": oracle}, (Rel(), KeyInit(2), Rel()))


def test_key_slices_refuse_before_running_a_slice(monkeypatch):
    prog, bindings = sliced_setup()

    def unreachable(*args):
        raise AssertionError("a slice ran")

    monkeypatch.setattr(harness, "run_pr", unreachable)
    with pytest.raises(ValueError, match="key slot"):
        key_slices(prog, {**bindings, "W": writes_key(rel_slot=1)}, (Rel(), KeyInit(2), Rel()))


@pytest.mark.parametrize("init", [(Rel(), 0), (Rel(), KeyInit(1), KeyInit(1)), ()])
def test_key_slicing_needs_one_key_init_slot(init):
    prog, bindings = sliced_setup()
    with pytest.raises(ValueError, match="exactly one KeyInit"):
        key_sliced_view(prog, bindings, init)


# ---------------------------------------- Monte Carlo batches, bitwise to the old formulas


def old_haar_view_mc(program, sampler, trials, master_seed, keep=None, batches=20):
    batches = min(batches, trials)
    first = view_of_state(run_concrete(program, sampler(trial_rng(master_seed, 0))), keep)
    dim = first.entries.shape[0]
    sums = np.zeros((batches, dim, dim), dtype=complex)
    counts = np.zeros(batches, dtype=np.int64)
    sums[0] += first.entries
    counts[0] += 1
    for t in range(1, trials):
        b = sampler(trial_rng(master_seed, t))
        sums[t % batches] += view_of_state(run_concrete(program, b), keep).entries
        counts[t % batches] += 1
    total = sums.sum(axis=0) / trials
    batch_means = [DensityMatrix(sums[b] / counts[b]) for b in range(batches) if counts[b]]
    return DensityMatrix(total), batch_means


def old_bootstrap_td_pair(batches_a, batches_b, master_seed, resamples=200):
    ea = np.array([b.entries for b in batches_a])
    eb = np.array([b.entries for b in batches_b])
    rng = trial_rng(master_seed, 10**9 + 1)
    vals = []
    na, nb = len(batches_a), len(batches_b)
    for _ in range(resamples):
        ma = ea[rng.integers(0, na, size=na)].mean(axis=0)
        mb = eb[rng.integers(0, nb, size=nb)].mean(axis=0)
        vals.append(trace_distance(DensityMatrix(ma), DensityMatrix(mb)))
    return float(np.std(vals))


def old_bootstrap_td_stderr(batch_means, reference, master_seed, resamples=200):
    ents = np.array([b.entries for b in batch_means])
    rng = trial_rng(master_seed, 10**9)
    vals = []
    nb = len(batch_means)
    for _ in range(resamples):
        idx = rng.integers(0, nb, size=nb)
        mean = ents[idx].mean(axis=0)
        vals.append(trace_distance(DensityMatrix(mean), reference))
    return float(np.std(vals))


@pytest.mark.parametrize("n", [2, 6])  # views of dimension 4 and 64
@pytest.mark.parametrize("trials", [23, 7])  # not a multiple of the 20 batches; fewer than 20
def test_mc_batches_and_bootstrap_are_bitwise_the_old_formulas(n, trials):
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),))

    def sampler(rng):
        return {"U": haar_unitary(2**n, rng)}

    mean, batches = haar_view_mc(prog, sampler, trials, 13)
    old_mean, old_batches = old_haar_view_mc(prog, sampler, trials, 13)
    assert np.array_equal(mean.entries, old_mean.entries)
    assert len(batches) == len(old_batches) == min(trials, 20)
    assert all(np.array_equal(b.entries, o.entries) for b, o in zip(batches, old_batches))
    _, other = haar_view_mc(prog, sampler, trials + 5, 14)
    ref = DensityMatrix(np.eye(2**n) / 2**n)
    assert bootstrap_td_stderr(batches, ref, 3) == old_bootstrap_td_stderr(old_batches, ref, 3)
    assert bootstrap_td_pair(batches, other, 3) == old_bootstrap_td_pair(old_batches, other, 3)


# ---------------------------------------- dense kernels, bitwise to the moveaxis formulas
# The dense kernels from before every qubit reordering went through
# linalg.qubits_first. Kept as the one-PR differential oracle of the new kernels.


def old_apply_gate(vec, gate, targets, n):
    k = len(targets)
    tens = np.asarray(vec, dtype=complex).reshape((2,) * n)
    tens = np.moveaxis(tens, targets, range(k))
    shape = tens.shape
    out = (np.asarray(gate, dtype=complex) @ tens.reshape(2**k, -1)).reshape(shape)
    out = np.moveaxis(out, range(k), targets)
    return out.reshape(2**n).copy()


def old_concrete_sparse(vec, perm, phases, targets, n):
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    tens = np.moveaxis(vec.reshape((2,) * n), targets + rest, range(n))
    mat = tens.reshape(2**k, -1)
    out = np.zeros_like(mat)
    out[perm] = phases[:, None] * mat
    tens = np.moveaxis(out.reshape((2,) * n), range(n), targets + rest)
    return tens.reshape(-1)


def old_view_of_state(state, keep=None):
    n = state.qubit_count
    if keep is None:
        return state.density().entries
    keep = list(keep)
    drop = [i for i in range(n) if i not in keep]
    tens = state.amplitudes.reshape((2,) * n)
    tens = np.moveaxis(tens, keep + drop, list(range(n)))
    m = tens.reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def old_run_concrete(program, bindings):
    """run_concrete through the old kernels, for the step kinds of the tests below."""
    n = program.reg_qubits
    vec = basis_state(n, 0).amplitudes
    for step in program.steps:
        if isinstance(step, ClassicalQuery):
            ans = bindings[step.oracle_id].answer(step.w)
            vec, n = np.kron(vec, ans.amplitudes), n + ans.qubit_count
        elif isinstance(step, QuantumQuery):
            vec = old_apply_gate(vec, bindings[step.oracle_id].entries, list(range(program.n)), n)
        else:
            targets = list(step.targets) if step.targets is not None else list(range(program.reg_qubits))
            if step.u is None:
                vec = old_concrete_sparse(vec, *step.sparse_map, targets, n)
            else:
                vec = old_apply_gate(vec, step.u.entries, targets, n)
    return vec


KERNEL_TARGETS = [[0, 1, 2, 3], [0, 2], [3, 0, 2], [1]]  # full, partial, unsorted, one qubit


@pytest.mark.parametrize("targets", KERNEL_TARGETS)
def test_dense_kernels_are_bitwise_the_moveaxis_formulas(targets):
    n = 4
    rng = trial_rng(27)
    vec = haar_unitary(2**n, rng).entries[:, 0]
    gate = haar_unitary(2 ** len(targets), rng).entries
    assert apply_gate(vec, gate, targets, n).tobytes() == old_apply_gate(vec, gate, targets, n).tobytes()
    prog = AdversaryProgram(
        n=n,
        steps=(
            haar_interleave(n, rng),
            phased_permutation_interleave(n, rng, targets=targets),
            haar_interleave(n, rng, targets=targets),
            QuantumQuery("U"),
        ),
    )
    bindings = {"U": haar_unitary(2**n, rng)}
    state = run_concrete(prog, bindings)
    assert state.amplitudes.tobytes() == old_run_concrete(prog, bindings).tobytes()
    for keep in (None, targets):
        assert view_of_state(state, keep).entries.tobytes() == old_view_of_state(state, keep).tobytes()


def test_dense_kernels_on_a_grown_register_are_bitwise_the_moveaxis_formulas():
    # a classical answer appends two qubits; later layers act across the join
    n = 2
    rng = trial_rng(28)
    reply = StateVector.from_array(haar_unitary(4, rng).entries[:, 1])
    oracle = ClassicalConcreteOracle(n=2, answer=lambda w: reply)
    prog = AdversaryProgram(
        n=n,
        steps=(
            haar_interleave(n, rng),
            ClassicalQuery("O", 1),
            haar_interleave(4, rng, targets=[3, 0]),
            phased_permutation_interleave(4, rng, targets=[2, 1, 3]),
        ),
    )
    state = run_concrete(prog, {"O": oracle})
    assert state.qubit_count == 4
    assert state.amplitudes.tobytes() == old_run_concrete(prog, {"O": oracle}).tobytes()
    for keep in (None, [3, 1], [2]):
        assert view_of_state(state, keep).entries.tobytes() == old_view_of_state(state, keep).tobytes()
