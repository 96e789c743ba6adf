"""Differential oracle for exp_pru1's isometry check, kept for one change only.

exp_pru1 now checks the key-Hadamard isometry backwards: hybrid 3 is
relabelled once onto hybrid 2's labels, and each key slice of hybrid 2 is
compared with the slice hybrid 3 predicts (experiments._hybrid3_slices).
The forward path it replaced, a dense key-Hadamard accumulator
(KeyHadamard), a pair-gathering relabel (gather_pairs) and a search over
the pair-position subsets (_split_by_prefix_xor), is copied below. Both
paths run on the same hybrid states of exp_pru1 secure mode, must read
exact agreement, and must both see one perturbed amplitude of hybrid 3.
Delete this module with the next change.
"""

import itertools

import numpy as np
import pytest

from qhrolab import experiments
from qhrolab.experiments import run_experiment
from qhrolab.relstate import (
    PurifiedState,
    Rel,
    _int_column,
    _intern,
    _joint_rows,
    _key,
    _merge,
    _parity,
    _rel_span,
    _slot_span,
    _Table,
    _width,
    key_column,
    label_rewrite,
    pair_columns,
)

# ----------------------------------------------------- the replaced forward path


def gather_pairs(state, slot, positions):
    """Relabel every label to Rel slots gathered from the pairs of its Rel slot `slot`.

    positions holds one (labels, width) int array per new slot, increasing
    along each row: new slot i of a label holds the pairs at its row of
    positions[i] (a position that holds padding adds nothing). Every
    other slot is dropped. Amplitude vectors are untouched; raises if two
    labels meet.
    """
    a, b = _rel_span(state.schema, slot)
    blocks = [np.take_along_axis(state.rows[:, a:b], np.asarray(p, dtype=np.int64), axis=1) for p in positions]
    rows = np.hstack([np.zeros((state.label_count(), 0), dtype=np.int64), *blocks])
    return label_rewrite(state, tuple(("rel", blk.shape[1]) for blk in blocks), rows)


class KeyHadamard:
    """Hadamard transform of an integer key slot (2^lam keys), added one key slice at a time.

    add(k, state_k) takes the branch of key k: a state whose labels all hold
    k in the key slot. Label (rest, h) of state() holds
    scale * sum_k (-1)^{h.k} state_k(rest), rest being a label without its
    key. The sum is kept in a dense (2^lam, groups) block over the groups
    (rest, index) met so far; the block grows by the union of the slice
    supports, so a caller that frees each slice after adding it never holds
    the whole keyed state.
    """

    def __init__(self, key_slot, lam):
        self.key_slot, self.lam = key_slot, lam
        self.table = self.groups = self.acc = None

    def add(self, k, state):
        lam, n = self.lam, state.n_qubits
        if not 0 <= k < 2**lam or np.any(_int_column(state.schema, state.rows, self.key_slot) != k):
            raise ValueError(f"key slice {k} holds labels of another key")
        slot = range(len(state.schema))[self.key_slot]
        a, _ = _slot_span(state.schema, slot)
        rest = _Table(state.schema[:slot] + state.schema[slot + 1 :], np.delete(state.rows, a, axis=1))
        if self.table is None:
            self.n, self.slot = n, slot
            joint = rest.schema, rest.rows[:0], rest.rows
        elif n != self.n or slot != self.slot:
            raise ValueError("key slices differ in register or key slot")
        else:
            joint = _joint_rows(self.table, rest)
            if joint is None:
                raise ValueError("key slices differ in label slots")
        schema, old_rows, new_rows = joint
        rows, inv = _intern(np.vstack([old_rows, new_rows]))
        self.table = _Table(schema, rows)
        old = len(old_rows)
        new_groups = _key(n, inv[old:][state.label_ids], state.indices)
        if self.groups is None:
            old_groups = new_groups[:0]
        else:
            old_groups = _key(n, inv[:old][self.groups >> n], self.groups & ((1 << n) - 1))
        groups = np.concatenate([old_groups, new_groups])
        groups.sort()
        groups = groups[np.concatenate(([True], groups[1:] != groups[:-1]))]
        if self.acc is None or not np.array_equal(groups, old_groups):
            acc = np.zeros((2**lam, len(groups)), dtype=complex)
            if self.acc is not None:
                acc[:, np.searchsorted(groups, old_groups)] = self.acc
            self.acc = acc
        self.groups = groups
        at = np.searchsorted(groups, new_groups)
        for h, odd in enumerate(_parity(np.arange(2**lam) & k).tolist()):
            if odd:
                self.acc[h, at] -= state.amplitudes
            else:
                self.acc[h, at] += state.amplitudes

    def state(self, scale=None):
        """The transformed state; scale defaults to 2^(-lam/2), the transform of
        the sum of the slices (the slices of a uniform key, harness.key_slices,
        weigh 2^(-lam/2) each: pass 2^-lam). Amplitudes of modulus <= 1e-14
        are dropped, and so are labels left without entries."""
        if self.table is None:
            raise ValueError("no key slice was added")
        lam, n = self.lam, self.n
        amp = self.acc * (2.0 ** (-lam / 2.0) if scale is None else scale)
        h, g = np.nonzero(np.abs(amp) > 1e-14)
        amp = amp[h, g]
        labs, lab = np.unique(((self.groups[g] >> n) << lam) | h, return_inverse=True)
        a = sum(_width(spec) for spec in self.table.schema[: self.slot])
        rows = np.insert(self.table.rows[labs >> lam], a, labs & ((1 << lam) - 1), axis=1)
        schema = self.table.schema[: self.slot] + (("int",),) + self.table.schema[self.slot :]
        entries = _merge(n, _key(n, lab, self.groups[g] & ((1 << n) - 1)), amp)
        out = object.__new__(PurifiedState)
        out._set(n, schema, rows, *entries)
        return out


def _split_by_prefix_xor(mixed, ell, n, lam):
    """The labels (Rel, h) of `mixed` rewritten to (Rel(sel), Rel(rest)).

    sel is the one ell-subset of the pairs whose output prefixes XOR to h,
    found by a column test over the C(w, ell) pair-position subsets;
    ValueError unless exactly one subset matches on every label.
    """
    _, y, on = pair_columns(mixed, 0)
    h = key_column(mixed, 1)
    w = y.shape[1]
    subsets = list(itertools.combinations(range(w), ell))
    prefix = y >> (n - lam)
    hits = np.zeros(len(h), dtype=np.int64)
    pick = np.zeros(len(h), dtype=np.int64)
    for i, sub in enumerate(subsets):
        cols = list(sub)
        match = on[:, cols].all(axis=1) & (np.bitwise_xor.reduce(prefix[:, cols], axis=1) == h)
        hits += match
        pick[match] = i
    if np.any(hits != 1):
        raise ValueError("prefix-XOR subset is not unique; collision-freeness violated")
    sel = np.array(subsets, dtype=np.int64).reshape(len(subsets), ell)
    rest = np.array([[c for c in range(w) if c not in sub] for sub in subsets], dtype=np.int64)
    return gather_pairs(mixed, 0, [sel[pick], rest.reshape(len(subsets), w - ell)[pick]])


def forward_gap(slices, psi3, n, lam, ell):
    """The replaced check: the key-Hadamard transform of the slices (each weighs
    2^(-lam/2) in hybrid 2), split by prefix XOR, against psi3."""
    hadamard = KeyHadamard(1, lam)
    for k, state in slices:
        hadamard.add(k, state)
    mixed = hadamard.state(scale=2.0**-lam).prune(1e-12)
    return _split_by_prefix_xor(mixed, ell, n, lam).max_diff(psi3)


def backward_gap(slices, psi3, n, lam):
    expected = experiments._hybrid3_slices(psi3, n, lam)
    return max(state.max_diff(expected(k)) for k, state in slices)


def hybrid_states(monkeypatch, params):
    """(report, key slices of hybrid 2, psi3) of one exp_pru1 secure run."""
    slices, psi3 = [], []
    original_view, original_slices = experiments.key_sliced_view, experiments._hybrid3_slices

    def keep_slices(program, bindings, init_label, keep=None, mask=None, each=None):
        def both(k, state):
            slices.append((k, state))
            each(k, state)

        return original_view(program, bindings, init_label, keep, mask, both)

    def keep_psi3(state, n, lam):
        psi3.append(state)
        return original_slices(state, n, lam)

    monkeypatch.setattr(experiments, "key_sliced_view", keep_slices)
    monkeypatch.setattr(experiments, "_hybrid3_slices", keep_psi3)
    report = run_experiment("exp_pru1", params)
    return report, slices, psi3[0]


CASES = [
    # the `keyed` benchmark workload and acceptance run 04 (n = lam = t = 3, ell = 1)
    {"seed": 3, "trials": 500},
    {"seed": 3, "trials": 400},
    {"seed": 3, "n": 3, "lam": 2, "ell": 2, "t": 3, "trials": 2},
    {"seed": 3, "n": 3, "lam": 3, "ell": 3, "t": 3, "trials": 2},
    {"seed": 3, "n": 4, "lam": 2, "ell": 2, "t": 3, "trials": 2},
]


@pytest.mark.parametrize("params", CASES, ids=lambda p: "-".join(f"{k}{v}" for k, v in p.items()))
def test_backward_check_matches_replaced_forward_check(monkeypatch, params):
    report, slices, psi3 = hybrid_states(monkeypatch, params)
    p = report.grid[0]["point"]
    n, lam, ell = p["n"], p["lam"], p["ell"]
    assert len(slices) == 2**lam
    (check,) = [c for c in report.grid[0]["checks"] if c["name"] == "isometry_state_match"]
    backward = backward_gap(slices, psi3, n, lam)
    assert check["value"] == backward
    assert backward <= 1e-12 and forward_gap(slices, psi3, n, lam, ell) <= 1e-12

    # one hybrid-3 amplitude moved by 1e-6 shows in both directions
    amp = psi3.amplitudes.copy()
    amp[len(amp) // 2] += 1e-6
    moved = PurifiedState.from_table(n, psi3.schema, psi3.rows.copy(), psi3.label_ids, psi3.indices, amp)
    assert backward_gap(slices, moved, n, lam) > 1e-8
    assert forward_gap(slices, moved, n, lam, ell) > 1e-8


# ------------------------------------------------ tests of the replaced path


def two_label_state():
    return PurifiedState(
        1,
        {
            (Rel([(0, 0)]), 0): {0: 0.6 + 0j, 1: 0.3j},
            (Rel([(1, 1)]), 1): {1: 0.74161984870957 + 0j},
        },
    )


def key_slot_hadamard(state, key_slot, lam):
    """The key-Hadamard transform of a whole state, added key slice by key slice."""
    hadamard = KeyHadamard(key_slot, lam)
    key = key_column(state, key_slot)
    for k in np.unique(key).tolist():
        hadamard.add(k, state.select_labels(key == k))
    return hadamard.state()


def test_key_slot_hadamard_involution():
    st0 = two_label_state()
    back = key_slot_hadamard(key_slot_hadamard(st0, 1, 1), 1, 1)
    assert back.max_diff(st0) <= 1e-12


def test_key_hadamard_rejects_a_slice_of_another_key():
    hadamard = KeyHadamard(1, 1)
    with pytest.raises(ValueError, match="another key"):
        hadamard.add(0, two_label_state())
    with pytest.raises(ValueError, match="no key slice"):
        hadamard.state()


def test_gather_pairs_regroups_a_relation():
    st0 = PurifiedState(1, {(Rel([(0, 1), (2, 3), (4, 5)]), 9): {0: 0.6}, (Rel([(0, 1), (6, 7)]), 9): {1: 0.8}})
    out = gather_pairs(st0, 0, [[[0, 2], [0, 1]], [[1], [2]]])
    assert dict(out.terms) == {
        (Rel([(0, 1), (4, 5)]), Rel([(2, 3)])): {0: 0.6},
        (Rel([(0, 1), (6, 7)]), Rel()): {1: 0.8},
    }
    with pytest.raises(ValueError, match="not injective"):
        gather_pairs(st0, 0, [[[0], [0]]])
