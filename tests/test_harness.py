"""Adversary harness: concrete vs purified execution, views, Monte Carlo."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhrolab import experiments, harness, skeleton
from qhrolab.constructions import OracleDescriptor, concrete_oracle, haar_slot, pru_one_query, pru_two_query
from qhrolab.harness import (
    AdversaryProgram,
    ClassicalPROracle,
    ClassicalQuery,
    Interleave,
    KeyInit,
    QuantumQuery,
    bootstrap_td_pair,
    bootstrap_td_stderr,
    haar_interleave,
    haar_view_mc,
    key_sliced_view,
    phased_permutation_interleave,
    reduce_view,
    run_concrete,
    run_pr,
    view_of_state,
)
from qhrolab.linalg import (
    QUBIT_CAP,
    DensityMatrix,
    UnitaryMatrix,
    apply_unitary,
    haar_unitaries,
    haar_unitary,
    pauli_string,
    qubits_first,
    qubits_restore,
    trace_distance,
    trial_rng,
)
from qhrolab.labels import Rel, pair_columns, relation_state_vector
from qhrolab.relstate import CFParams, PurifiedState, label_rewrite

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_program_validation():
    with pytest.raises(ValueError):
        Interleave()
    with pytest.raises(ValueError):
        Interleave(u=np.eye(2), sparse_map=(np.arange(2), np.ones(2, dtype=complex)))
    # a dense layer is checked once, as it is built
    for bad in (np.eye(3), np.zeros((2, 4)), np.ones(2), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="power-of-two side"):
            Interleave(u=bad)
    with pytest.raises(ValueError, match="not unitary"):
        Interleave(u=2 * np.eye(2))
    with pytest.raises(ValueError, match="cap"):
        # a zero-strided view stands in for the oversized array
        Interleave(u=np.broadcast_to(np.zeros(1, dtype=complex), (2 ** (QUBIT_CAP + 1),) * 2))
    assert Interleave(u=np.eye(2, dtype=int)).u.dtype == complex
    assert Interleave(sparse_map=(np.array([1, 0]), np.exp(1j * np.array([0.3, 2.0]))), targets=(1,)).targets == (1,)
    prog = AdversaryProgram(n=2, m_anc=1, steps=(QuantumQuery("U"), QuantumQuery("U")))
    assert prog.reg_qubits == 3


@pytest.mark.parametrize(
    "perm,phases,targets",
    [
        ([0, 0], [1.0, 2.0], (0,)),  # neither a permutation nor unit phases
        ([0, 0], [1.0, 1.0], (0,)),  # a repeated value
        ([1, 0], [1.0, 2.0], (0,)),  # a phase of modulus 2
        ([1, 0], [1.0, 1.0 + 1e-6], (0,)),  # off by more than 1e-9
        ([1, 0], [1.0, 1.0], (0, 1)),  # two targets take 4 values
        ([1, 0, 2], [1.0, 1.0, 1.0], None),  # no power-of-two size
        ([1.0, 0.0], [1.0, 1.0], (0,)),  # values that are not integers
    ],
)
def test_sparse_map_is_a_phased_permutation(perm, phases, targets):
    with pytest.raises(ValueError, match="sparse map"):
        Interleave(sparse_map=(np.array(perm), np.array(phases, dtype=complex)), targets=targets)


TARGET_RULE = r"target qubit -?\d must be distinct and in \[0, 2\)"
U4 = haar_unitaries(4, [trial_rng(61)])[0]
# (step after one query of G, kept qubits, error) on a 2-qubit register; the
# oracle X is one key Pauli layer, which acts on the lam-bit input prefix
MALFORMED = {
    "dense_on_a_repeat": (lambda: Interleave(u=U4, targets=(0, 0)), None, TARGET_RULE),
    "query_on_a_repeat": (lambda: QuantumQuery("G", (1, 1)), None, TARGET_RULE),
    "key_pauli_on_a_repeat_past_its_prefix": (lambda: QuantumQuery("X", (0, 0)), None, TARGET_RULE),
    "sparse_on_a_repeat": (lambda: phased_permutation_interleave(2, trial_rng(62), targets=(1, 1)), None, TARGET_RULE),
    "negative_target": (lambda: Interleave(u=U4, targets=(0, -1)), None, TARGET_RULE),
    "target_past_the_register": (lambda: Interleave(u=U4, targets=(0, 2)), None, TARGET_RULE),
    "side_not_two_to_the_targets": (lambda: Interleave(u=U4, targets=(1,)), None, "takes 2 targets, not 1"),
    "keep_with_a_repeat": (lambda: QuantumQuery("G"), (0, 0), TARGET_RULE),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_both_interpreters_refuse_a_malformed_step(case):
    # a purified view of such a step used to come back with a wrong trace,
    # or a unit trace and wrong entries, where run_concrete refused it
    make, keep, error = MALFORMED[case]
    init = (Rel(), KeyInit(1))
    descs = {"G": pru_two_query(2, 1), "X": OracleDescriptor(n=2, lam=1, steps=(("pauli", "X"),))}
    u = haar_unitaries(4, [trial_rng(63)])
    oracles = {name: concrete_oracle(desc, u, [1]) for name, desc in descs.items()}
    views = [
        lambda prog: reduce_view(run_pr(prog, descs, init), keep),
        lambda prog: key_sliced_view(prog, descs, init, keep),
        lambda prog: view_of_state(run_concrete(prog, oracles)[0], keep),
    ]
    for view in views:
        with pytest.raises(ValueError, match=error):
            view(AdversaryProgram(n=2, steps=(QuantumQuery("G"), make())))


NOT_A = "oracle 'D' is not a"  # run_concrete: "... stack of"; run_pr: "... descriptor of"
# (binding D, its program's steps on a 2-qubit register or None where D is
# refused when it is built, error); at the parent run_pr returned a view, or
# failed only as a step ran, where run_concrete refused, or the reverse
ORACLE_RULE = {
    "pauli_layer_on_a_narrower_register": (
        lambda: OracleDescriptor(n=2, lam=1, steps=(("pauli", "X"),)),
        (QuantumQuery("D", (0,)),),
        NOT_A,
    ),
    "no_steps_on_a_narrower_register": (lambda: OracleDescriptor(n=2), (QuantumQuery("D", (0,)),), NOT_A),
    "key_longer_than_the_register": (lambda: OracleDescriptor(n=1, lam=2, steps=(("pauli", "X"),)), None, "lam <= n"),
    "negative_key_length": (lambda: OracleDescriptor(n=2, lam=-1), None, "0 <= lam"),
    "pauli_y": (lambda: OracleDescriptor(n=2, lam=1, steps=(("pauli", "Y"),)), None, "a step is"),
    "no_qubits": (lambda: OracleDescriptor(n=0), None, "n >= 1"),
    "cf_of_another_width": (
        lambda: OracleDescriptor(n=2, steps=(("pr", 0, CFParams(1, 1, 3)),)),
        None,
        "CFParams of n = 2",
    ),
    "cf_not_a_cfparams": (lambda: OracleDescriptor(n=2, steps=(("pr", 0, "x"),)), None, "a step is"),
    "classical_w_past_rel_slot": (
        lambda: ClassicalPROracle(n=1, rel_slot=(0,), input_of=lambda k, w: k),
        (ClassicalQuery("D", 0), ClassicalQuery("D", 1)),
        "classical input 1 has no relation slot",
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_RULE))
def test_both_interpreters_read_one_oracle_rule(case, monkeypatch):
    make, steps, error = ORACLE_RULE[case]
    if steps is None:
        with pytest.raises(ValueError, match=error):
            make()
        return
    oracle, prog, init = make(), AdversaryProgram(n=2, steps=steps), (Rel(), KeyInit(1))
    built = []  # run_pr builds its initial state after its one check
    monkeypatch.setattr(harness, "PurifiedState", lambda *args: built.append(args) or PurifiedState(*args))
    views = [lambda: run_pr(prog, {"D": oracle}, init), lambda: key_sliced_view(prog, {"D": oracle}, init)]
    if isinstance(oracle, OracleDescriptor):  # a concrete classical oracle has no relation slots
        u = concrete_oracle(oracle, haar_unitaries(4, [trial_rng(66)]), [0])
        views.append(lambda: run_concrete(prog, {"D": u}))
    for view in views:
        with pytest.raises(ValueError, match=error):
            view()
    assert not built


KEY_RANGE = "key out of range"
KEY_LENGTH = "a key slot needs an int lam >= 0"
# (key slot of the init label, the key concrete_oracle is given, whether
# key_sliced_view takes the slot, error); at the parent KeyInit(-1) and
# KeyInit(1.5) raised TypeError, KeyInit(True) ran as lam 1, and the rest ran
# against a 1-bit key layer on the key's low bit (2 and 3 as 0 and 1)
KEY_RULE = {
    "negative_key_length": (lambda: KeyInit(-1), -1, True, KEY_LENGTH),
    "fractional_key_length": (lambda: KeyInit(1.5), 1.5, True, KEY_LENGTH),
    "bool_key_length": (lambda: KeyInit(True), True, True, KEY_LENGTH),
    "key_length_past_lam": (lambda: KeyInit(2), 3, True, KEY_RANGE),
    "int_key_2": (lambda: 2, 2, False, KEY_RANGE),
    "int_key_3": (lambda: 3, 3, False, KEY_RANGE),
    "int_key_5": (lambda: 5, 5, False, KEY_RANGE),
    "negative_int_key": (lambda: -1, -1, False, KEY_RANGE),
}


@pytest.mark.parametrize("kind", ["X", "Z"])
@pytest.mark.parametrize("case", sorted(KEY_RULE))
def test_both_interpreters_read_one_key_rule(case, kind, monkeypatch):
    make, key, sliced, error = KEY_RULE[case]
    desc = OracleDescriptor(n=2, lam=1, steps=(("pauli", kind),))
    with pytest.raises(ValueError, match=KEY_RANGE):
        concrete_oracle(desc, haar_unitaries(4, [trial_rng(69)]), [key])
    prog, bindings = AdversaryProgram(n=2, steps=(QuantumQuery("D"),)), {"D": desc}
    built = []  # run_pr builds its initial state after its one check
    monkeypatch.setattr(harness, "PurifiedState", lambda *args: built.append(args) or PurifiedState(*args))
    views = [lambda: run_pr(prog, bindings, (Rel(), make()))]
    if sliced:
        views.append(lambda: key_sliced_view(prog, bindings, (Rel(), make())))
    for view in views:
        with pytest.raises(ValueError, match=error):
            view()
    assert not built


@pytest.mark.parametrize(
    "n,rel_slot",
    [(0, (0,)), (1.0, (0,)), (True, (0,)), (1, ()), (1, [0]), (1, (0.0,)), (1, (0, "1")), (1, np.array([0]))],
)
def test_a_classical_recorder_checks_itself(n, rel_slot):
    with pytest.raises(ValueError, match="a classical recorder needs"):
        ClassicalPROracle(n=n, rel_slot=rel_slot, input_of=lambda k, w: 0)


def _in_oracle_rule(n, lam, steps):
    """The descriptor rule, restated: ints 1 <= n and 0 <= lam <= n; steps
    ('pr', int slot, None or a CFParams of n bits) or ('pauli', 'X' | 'Z')."""

    def step_ok(s):
        if isinstance(s, tuple) and len(s) == 3 and s[0] == "pr" and type(s[1]) is int:
            return s[2] is None or isinstance(s[2], CFParams) and s[2].n == n
        return s in (("pauli", "X"), ("pauli", "Z"))

    return type(n) is int and type(lam) is int and 1 <= n and 0 <= lam <= n and all(map(step_ok, steps))


def _cf_step(m):
    return st.builds(lambda fold, prefix: ("pr", 0, CFParams(fold, prefix, m)), st.integers(1, 2), st.integers(0, m))


def _mostly(good, bad):
    """good three times in four, else bad."""
    return st.one_of(good, good, good, bad)


GOOD_STEPS = st.sampled_from([("pr", 0, None), ("pauli", "X"), ("pauli", "Z")])
BAD_STEPS = st.sampled_from([("pauli", "Y"), ("pr", 0, "x"), ("pr", 0.0, None), ("pr", 0), ["pauli", "X"], "pr"])


@settings(max_examples=300, deadline=None)
@given(n=_mostly(st.integers(1, 3), st.sampled_from([-1, 0, 2.0, True])), reg=st.integers(2, 3), data=st.data())
def test_one_oracle_rule_for_both_interpreters(n, reg, data):
    # a descriptor is refused exactly where it breaks the rule; a valid one,
    # queried on a drawn register with a key slot of a drawn width, runs in
    # both interpreters or is refused by both
    m = n if type(n) is int and n >= 1 else 2
    lam = data.draw(_mostly(st.integers(0, m), st.sampled_from([-1, m + 1, 1.0])))
    step = _mostly(st.one_of(GOOD_STEPS, _cf_step(m)), st.one_of(BAD_STEPS, _cf_step(m % 3 + 1)))
    steps = data.draw(st.lists(step, max_size=3))
    if not _in_oracle_rule(n, lam, steps):
        with pytest.raises(ValueError):
            OracleDescriptor(n=n, lam=lam, steps=tuple(steps))
        return
    desc = OracleDescriptor(n=n, lam=lam, steps=tuple(steps))
    # one recording step at most: past N queries the recording map runs out of outputs
    assume(len(desc.record_slots()) <= 1)
    query = data.draw(
        st.one_of(
            st.none(),
            st.permutations(range(reg)).map(lambda p: tuple(p[:n])),
            st.lists(st.integers(-1, 3), max_size=4).map(tuple),
        )
    )
    prog = AdversaryProgram(n=reg, steps=(haar_interleave(reg, trial_rng(67)), QuantumQuery("D", query)))
    width = data.draw(st.integers(0, lam + 1))
    # a key of exactly `width` bits; a descriptor without key layers takes no key
    keyed = any(s[0] == "pauli" for s in desc.steps)
    k = data.draw(st.integers(2**width // 2, 2**width - 1)) if keyed else 0
    results = []
    for run in (
        lambda: run_pr(prog, {"D": desc}, (Rel(), KeyInit(width))),
        lambda: run_concrete(prog, {"D": concrete_oracle(desc, haar_unitaries(2**n, [trial_rng(68)]), [k])}),
    ):
        try:
            run()
            results.append("runs")
        except ValueError:
            results.append("refused")
    assert results[0] == results[1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_one_key_rule_for_both_interpreters(n, data):
    # a descriptor with key layers is run on a key slot of a drawn width or a
    # drawn int key: run_pr refuses it exactly where concrete_oracle refuses
    # the slot's largest key, which is where that key is not in [0, 2^lam)
    lam = data.draw(st.integers(0, n))
    steps = data.draw(st.lists(st.sampled_from([("pauli", "X"), ("pauli", "Z")]), min_size=1, max_size=2))
    steps.insert(data.draw(st.integers(0, len(steps))), ("pr", 0, None))
    desc = OracleDescriptor(n=n, lam=lam, steps=tuple(steps))
    slot = data.draw(st.one_of(st.integers(0, n + 1).map(KeyInit), st.integers(-2, 2 ** (n + 1))))
    top = 2**slot.lam - 1 if isinstance(slot, KeyInit) else slot
    prog = AdversaryProgram(n=n, steps=(haar_interleave(n, trial_rng(72)), QuantumQuery("D")))
    runs = [
        lambda: run_pr(prog, {"D": desc}, (Rel(), slot)),
        lambda: concrete_oracle(desc, haar_unitaries(2**n, [trial_rng(73)]), [top]),
    ]
    if isinstance(slot, KeyInit):
        runs.append(lambda: key_sliced_view(prog, {"D": desc}, (Rel(), slot)))
    for run in runs:
        if 0 <= top < 2**lam:
            run()
        else:
            with pytest.raises(ValueError, match="key out of range"):
                run()


def test_a_haar_layer_on_no_targets_is_a_global_phase():
    step = haar_interleave(2, trial_rng(64), targets=[])
    assert step.targets == () and step.u.shape == (1, 1)
    first = (haar_interleave(2, trial_rng(65)),)
    progs = [AdversaryProgram(n=2, steps=steps) for steps in (first + (step,), first)]
    after, before = (run_concrete(prog, {}) for prog in progs)
    assert np.allclose(after, step.u[0, 0] * before, rtol=0, atol=1e-12)
    after, before = (run_pr(prog, {}, (Rel(),)) for prog in progs)
    assert np.array_equal(after.indices, before.indices)
    assert np.allclose(after.amplitudes, step.u[0, 0] * before.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_interleave_without_targets_acts_on_its_first_qubits(k):
    # a classical query grows the register to 2 qubits; a layer of 2^k
    # without targets then acts on qubits 0..k-1 in both interpreters
    dense = haar_interleave(k, trial_rng(27))
    sparse = phased_permutation_interleave(k, trial_rng(28))
    assert dense.targets == sparse.targets == tuple(range(k))
    reply = {"C": lambda w: np.eye(2)[1][None]}
    recorder = {"C": ClassicalPROracle(n=1, rel_slot=(0,), input_of=lambda key, w: 1)}
    for layer, explicit in (
        (dense, Interleave(u=dense.u, targets=tuple(range(k)))),
        (sparse, Interleave(sparse_map=sparse.sparse_map, targets=tuple(range(k)))),
    ):
        progs = [
            AdversaryProgram(n=1, steps=(haar_interleave(1, trial_rng(29)), ClassicalQuery("C", 0), step))
            for step in (layer, explicit)
        ]
        concrete = [run_concrete(prog, reply) for prog in progs]
        assert concrete[0].tobytes() == concrete[1].tobytes()
        purified = [run_pr(prog, recorder, (Rel(),)) for prog in progs]
        assert purified[0].max_diff(purified[1]) == 0.0


def test_run_concrete_matches_matrix():
    rng = trial_rng(21)
    n = 2
    a, u = haar_unitaries(4, [rng, rng])
    prog = AdversaryProgram(n=n, steps=(Interleave(u=a), QuantumQuery("U")))
    out = run_concrete(prog, {"U": u[None]})
    expect = u @ a[:, 0]
    assert out.shape == (1, 4)
    assert np.max(np.abs(out[0] - expect)) < 1e-10
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
        steps=(haar_interleave(n, trial_rng(23)), Interleave(u=dense, targets=(0, 2))),
    )
    va = run_concrete(prog_sparse, {})
    vb = run_concrete(prog_dense, {})
    assert np.max(np.abs(va - vb)) < 1e-10


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
    behind = AdversaryProgram(n=n, steps=(Interleave(u=np.eye(2**n)), *steps))
    u = haar_unitary(2**n, trial_rng(26)).entries[None]
    assert run_concrete(bare, {"U": u}).tobytes() == run_concrete(behind, {"U": u}).tobytes()
    views = [reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),))).entries for prog in (bare, behind)]
    assert views[0].tobytes() == views[1].tobytes()


def test_classical_concrete_appends_register():
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 3),))
    out = run_concrete(prog, {"O": lambda w: np.eye(4)[w][None]})
    assert out.shape == (1, 2**3)
    assert abs(out[0, 0b011] - 1.0) < 1e-12


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


@pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_one_query_per_register_records_the_collision_free_symmetric_state(n, t):
    """t single U queries on t disjoint n-qubit registers, each from |0^n>.

    The recording oracle maps |x>|R> to (N - |R|)^{-1/2} sum_{y not in
    Im R} |y>|R + (x, y)>. Every query has x = 0, so after t of them the
    label is the set S = {y_1, ..., y_t} of t distinct outputs, and the
    registers hold every ordering of S, each with amplitude
    prod_{i<t} (N - i)^{-1/2} = ((N - t)! / N!)^{1/2}. Per S that is
    (t! (N-t)! / N!)^{1/2} = C(N, t)^{-1/2} times the unit symmetrised state
    |sym_S>, so tracing out the label leaves
        sum_S |sym_S><sym_S| / C(N, t) = P_cf / C(N, t),
    where P_cf = P_sym D is the collision-free part of the symmetric
    projector: D keeps the basis strings with t distinct entries and
    commutes with every register permutation.

    The Haar view is E[(U|0>)^{(x)t} (..)^dag] = P_sym / C(N+t-1, t). P_cf
    lies under P_sym, so the difference has eigenvalue
    1/C(N+t-1,t) - 1/C(N,t) on the C(N, t) dimensions of P_cf and
    1/C(N+t-1,t) on the other C(N+t-1,t) - C(N,t) dimensions of Sym^t:
        TD = 1 - C(N, t) / C(N+t-1, t).
    """
    N = 2**n
    steps = tuple(QuantumQuery("U", input_qubits=tuple(range(i * n, (i + 1) * n))) for i in range(t))
    prog = AdversaryProgram(n=n, m_anc=(t - 1) * n, steps=steps)
    view = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)))

    cells = np.arange(N**t).reshape((N,) * t)
    eye = np.eye(N**t)
    p_sym = sum(eye[cells.transpose(perm).reshape(-1)] for perm in itertools.permutations(range(t))) / math.factorial(t)
    distinct = np.array([len(set(y)) == t for y in itertools.product(range(N), repeat=t)])
    p_cf = p_sym * distinct
    assert np.max(np.abs(view.entries - p_cf / math.comb(N, t))) <= 1e-15
    td = trace_distance(DensityMatrix(p_sym / math.comb(N + t - 1, t)), view)
    assert abs(td - (1 - math.comb(N, t) / math.comb(N + t - 1, t))) <= 1e-12


def test_purified_full_hilbert_cross_check():
    # embed each relation label as its symmetric register state and compare
    # the label-traced view against a genuine partial trace
    n, t = 2, 2
    rng = trial_rng(31)
    prog = AdversaryProgram(
        n=n,
        steps=(haar_interleave(n, rng), QuantumQuery("U"), Interleave(u=HADAMARD, targets=(0,)), QuantumQuery("U")),
    )
    psi = run_pr(prog, {"U": haar_slot(n)}, (Rel(),))
    dim_rel = 2 ** (2 * n * t)
    full = np.zeros(2**n * dim_rel, dtype=complex)
    for (rel,), vec in psi.terms.items():
        assert len(rel) == t
        rv = relation_state_vector(rel, n)
        for i, a in vec.items():
            full[i * dim_rel : (i + 1) * dim_rel] += a * rv
    rho_full = view_of_state(full, keep=[0, 1])
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
    moved = label_rewrite(psi, [pair_columns(psi, 0), np.full(psi.label_count(), 7)])
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

    def sampler(rngs):
        seen.extend(rngs)
        return {"U": haar_unitaries(2, rngs)}

    haar_view_mc(prog, sampler, trials, 3)
    assert len(seen) == trials


def test_haar_view_mc_holds_its_batch_sums_once():
    n, trials = 7, 40  # 128 x 128 views: one trial per stack, every batch filled twice
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),))

    def sampler(rngs):
        return {"U": haar_unitaries(2**n, rngs)}

    haar_view_mc(prog, sampler, 1, 1)  # first use of QR and matmul outside the trace
    tracemalloc.start()
    try:
        _, batches = haar_view_mc(prog, sampler, trials, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d = 2**n
    full_bytes = harness._BATCHES * d * d * 16
    # one packed (batches, d(d+1)/2) accumulator, a stack's transients and
    # the mean; a full (batches, d, d) accumulator alone would read 1x
    assert peak < 1.0 * full_bytes
    assert isinstance(batches, np.ndarray) and batches.shape == (harness._BATCHES, d * (d + 1) // 2)


def test_recording_bound_small_n():
    # TD(Haar MC mean, recording view) within 2t(t-1)/(N+1) + 3 stderr
    n, t, trials = 2, 2, 2000
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"),) * t)
    exact = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)))
    mean, batches = haar_view_mc(prog, lambda rngs: {"U": haar_unitaries(2**n, rngs)}, trials, 71)
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

    def sampler(rngs):
        return {"U": haar_unitaries(2**n, rngs), "V": haar_unitaries(2**n, rngs)}

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
        steps += [QuantumQuery("U"), Interleave(u=np.kron(HADAMARD, HADAMARD), targets=(0, 1))]
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


@pytest.mark.parametrize("x", [2, -1, 0.0, np.float64(1.0), True])
def test_classical_input_outside_the_domain_is_refused(x):
    # an n = 1 oracle takes inputs in [0, 2); a float is refused, not truncated
    oracle = ClassicalPROracle(n=1, rel_slot=(0,), input_of=lambda k, w: x)
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 0),))
    with pytest.raises(ValueError, match=r"not an int in \[0, 2\^n\), n = 1"):
        run_pr(prog, {"O": oracle}, (Rel(),))


def test_classical_recording_keyed_and_global():
    oracle = ClassicalPROracle(n=1, rel_slot=(0, 0), input_of=lambda k, w: k ^ w)
    prog = AdversaryProgram(n=1, steps=(ClassicalQuery("O", 1),))
    # the int slot of the init label is the key slot that input_of reads
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

    def sampler(rngs):
        return {"U": haar_unitaries(4, rngs)}

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
    with pytest.raises(ValueError, match="Pauli layer needs a key slot"):
        run_pr(prog, {"G": pru_two_query(2, 2)}, (Rel(),))


@pytest.mark.parametrize("init", [(Rel(), 0, 1), (Rel(), KeyInit(1), 0), (KeyInit(1), Rel(), KeyInit(2))])
def test_an_init_label_holds_one_key_slot(init):
    with pytest.raises(ValueError, match="at most one key slot"):
        run_pr(AdversaryProgram(n=1), {}, init)


# ------------------------------------------------------------ key slicing


def sliced_setup(n=2, lam=2):
    """A two-query keyed program on a (Rel, key) label and its bindings."""
    prog = AdversaryProgram(n=n, steps=(haar_interleave(n, trial_rng(5)), QuantumQuery("G"), QuantumQuery("U")))
    return prog, {"G": pru_two_query(n, lam), "U": haar_slot(n, slot=0)}


def test_key_sliced_view_is_the_key_average():
    prog, bindings = sliced_setup()
    init = (Rel(), KeyInit(2))
    full = run_pr(prog, bindings, init)
    view, mass = key_sliced_view(prog, bindings, init, mask=lambda labels: np.ones(len(labels.rows), dtype=bool))
    assert np.max(np.abs(view.entries - reduce_view(full).entries)) <= 1e-12
    assert abs(mass - full.norm_sq()) <= 1e-12
    assert key_sliced_view(prog, bindings, init, keep=[0])[1] is None


def writes_key(rel_slot):
    return ClassicalPROracle(n=1, rel_slot=rel_slot, input_of=lambda k, w: k)


@pytest.mark.parametrize(
    "oracle",
    [
        writes_key(rel_slot=(1,)),
        writes_key(rel_slot=(-2,)),
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
    # the same check refuses a whole-state run, with the key expanded or as an int
    for key in (KeyInit(2), 1):
        with pytest.raises(ValueError, match="records into or avoids key slot 1"):
            run_pr(prog, {**bindings, "W": oracle}, (Rel(), key, Rel()))


def test_key_sliced_view_refuses_before_running_a_slice(monkeypatch):
    prog, bindings = sliced_setup()

    def unreachable(*args):
        raise AssertionError("a slice ran")

    monkeypatch.setattr(harness, "run_pr", unreachable)
    with pytest.raises(ValueError, match="key slot"):
        key_sliced_view(prog, {**bindings, "W": writes_key(rel_slot=(1,))}, (Rel(), KeyInit(2), Rel()))
    # a query of the wrong width, and a binding of the wrong type
    for oracle in (haar_slot(1), writes_key(rel_slot=(0,))):
        with pytest.raises(ValueError, match="oracle 'U' is not a descriptor of 2 qubits"):
            key_sliced_view(prog, {**bindings, "U": oracle}, (Rel(), KeyInit(2)))


@pytest.mark.parametrize("init", [(Rel(), 0), (Rel(), KeyInit(1), KeyInit(1)), ()])
def test_key_slicing_needs_one_key_init_slot(init):
    prog, bindings = sliced_setup()
    with pytest.raises(ValueError, match="exactly one KeyInit|at most one key slot"):
        key_sliced_view(prog, bindings, init)




# ---------------------------------------- stacked Monte Carlo, bitwise to the per-trial path
# Every haar_view_mc call of each experiment kind, run at the module's stack
# bound and with one trial per stack: run_trial_stacks may cut the seeded
# trials anywhere without moving a bit.

# (experiment, params, number of its haar_view_mc calls)
MC_KINDS = {
    "haar": ("exp_mh_bound", {"n_list": [3, 4]}, 2),
    "pru2": ("exp_pru2", {"n_list": [3]}, 4),
    "pru1": ("exp_pru1", {"n": 3, "lam": 2, "t": 2}, 2),
    "prs": ("exp_prs", {"n": 2, "lam": 1, "t": 2, "s": 1, "scaling": False}, 1),
    "prfs": ("exp_prfs", {"n": 2, "lam": 1, "t": 2, "scaling": False}, 1),
}


@pytest.fixture(scope="module")
def mc_calls():
    """kind -> [(program, sampler)] of each haar_view_mc call an experiment run of that kind makes."""
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for kind, (name, params, count) in MC_KINDS.items():
            seen = []

            def record(program, sampler, trials, master_seed, keep=None, seen=seen):
                seen.append((program, sampler))
                return haar_view_mc(program, sampler, trials, master_seed, keep)

            mp.setattr(skeleton, "haar_view_mc", record)
            experiments.run_experiment(name, {**params, "seed": 1, "trials": 1})
            assert len(seen) == count
            calls[kind] = seen
    return calls


@pytest.mark.parametrize("trials", [7, 23, 45])  # fewer than the 20 batches; not a multiple of them
@pytest.mark.parametrize("kind", MC_KINDS)
def test_stacked_mc_is_bitwise_the_per_trial_path(mc_calls, kind, trials, monkeypatch):
    for i, (prog, sampler) in enumerate(mc_calls[kind]):
        stacks = []

        def spy(rngs):
            stacks.append(len(rngs))
            return sampler(rngs)

        for keep in (None, [prog.reg_qubits - 1, 0]):
            runs = []
            for stack_bytes in (harness._STACK_BYTES, 1):  # the module's bound; one trial per stack
                stacks.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(harness, "_STACK_BYTES", stack_bytes)
                    runs.append(haar_view_mc(prog, spy, trials, 40 + i, keep))
                assert sum(stacks) == trials and stacks[0] == 1
                assert max(stacks) > 1 if stack_bytes > 1 else set(stacks) == {1}
            (mean, batches), (one_mean, one_batches) = runs
            assert mean.entries.tobytes() == one_mean.entries.tobytes()
            assert batches.tobytes() == one_batches.tobytes() and len(batches) == min(trials, 20)
            # the mean is the exact Hermitian completion of its lower triangle
            upper = np.triu_indices(len(mean.entries), 1)
            assert mean.entries[upper].tobytes() == mean.entries.T[upper].conj().tobytes()


def test_run_concrete_names_an_oracle_that_is_not_a_stack():
    n = 2
    prog = AdversaryProgram(n=n, steps=(QuantumQuery("U"), ClassicalQuery("O", 1), QuantumQuery("V")))
    us = haar_unitaries(2**n, [trial_rng(29, t) for t in range(3)])

    def answer(w):
        return us[:, :, w]

    assert run_concrete(prog, {"U": us, "O": answer, "V": us}).shape == (3, 2 ** (2 * n))
    bad = [
        ({"U": us[0]}, "'U'"),  # one matrix, not a stack
        ({"U": us[:, :2, :2]}, "'U'"),  # a stack of 1-qubit unitaries on a 2-qubit input
        ({"U": UnitaryMatrix(us[0])}, "'U'"),
        ({"U": us, "O": us}, "'O'"),  # a quantum stack bound to a classical query
        ({"U": us, "O": lambda w: us[:2, :, w]}, "'O'"),  # two answers for three trials
        ({"U": us, "O": lambda w: us[:, :3, w]}, "'O'"),  # three amplitudes: no qubit register
        ({"U": us, "O": answer, "V": us[:2]}, "'V'"),  # two unitaries for three trials
    ]
    for bindings, name in bad:
        with pytest.raises(ValueError, match=name):
            run_concrete(prog, bindings)
