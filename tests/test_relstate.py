"""Relation-label formalism: canonical labels, recording maps, cf machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhrolab import relstate
from qhrolab.labels import Rel, corx, corx_count, key_column, pair_columns, relation_state_vector
from qhrolab.linalg import key_pauli_action, pauli_string
from qhrolab.relstate import (
    CFParams,
    PurifiedState,
    cf_count,
    cf_set,
    is_collision_free,
    key_pauli,
    label_rewrite,
    pr_apply,
    project_good,
)


# ------------------------------------------------------------------- labels


def test_rel_canonical_form():
    a = Rel([(1, 2), (0, 3)])
    b = Rel([(0, 3), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a.pairs == ((0, 3), (1, 2))
    with pytest.raises(ValueError):
        Rel([(0, 1), (2, 1)])
    with pytest.raises(AttributeError):
        a.pairs = ()


def test_rel_allows_repeated_inputs():
    r = Rel([(0, 1), (0, 2)])
    assert len(r) == 2



# --------------------------------------------------------- relation states


def test_relation_state_norm_and_empty():
    assert relation_state_vector(Rel(), 2).tolist() == [1.0]
    for rel in (Rel([(0, 1)]), Rel([(0, 1), (0, 2)]), Rel([(1, 0), (1, 3)])):
        v = relation_state_vector(rel, 2)
        assert v.shape == (2 ** (4 * len(rel)),)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_relation_state_orthonormal_exhaustive():
    # all injective relations over one qubit, sizes 1 and 2
    for t in (1, 2):
        rels = []
        for pairs in itertools.product(itertools.product(range(2), range(2)), repeat=t):
            ys = [p[1] for p in pairs]
            if len(set(ys)) == len(ys):
                rels.append(Rel(pairs))
        rels = sorted(set(rels), key=repr)
        vecs = np.array([relation_state_vector(r, 1) for r in rels])
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(len(rels)))) <= 1e-10


def test_relation_state_multiplicity_normalizer():
    # a doubled pair has a single arrangement: amplitude 2 * 1/sqrt(2! 2!) = 1
    v = relation_state_vector([(0, 1), (0, 1)], 1)
    idx = (0b00 << 2) | 0b11
    assert abs(v[idx] - 1.0) < 1e-12


def test_relation_state_cap():
    with pytest.raises(ValueError):
        relation_state_vector(Rel([(0, i) for i in range(7)]), 2)


# ------------------------------------------------------------ recording map


def all_rels(N, tmax):
    out = [Rel()]
    for t in range(1, tmax + 1):
        for ys in itertools.combinations(range(N), t):
            for xs in itertools.product(range(N), repeat=t):
                out.append(Rel(zip(xs, ys)))
    return sorted(set(out), key=repr)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2))
def test_pr_apply_preserves_norm(seed, n, t):
    rng = np.random.default_rng(seed)
    N = 2**n
    assume(t < N)
    ys = rng.choice(N, size=t, replace=False)
    rel = Rel((int(rng.integers(0, N)), int(y)) for y in ys)
    amps = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    amps /= np.linalg.norm(amps)
    state = PurifiedState(n, {(rel,): {i: complex(a) for i, a in enumerate(amps)}})
    out = pr_apply(state, 0, list(range(n)), N)
    assert abs(out.norm_sq() - 1.0) < 1e-9


def test_pr_apply_image_avoidance():
    state = PurifiedState(1, {(Rel([(0, 0)]),): {1: 1.0}})
    out = pr_apply(state, 0, [0], 2)
    # only y=1 is free, amplitude 1
    assert set(out.terms) == {(Rel([(0, 0), (1, 1)]),)}
    assert abs(out.terms[(Rel([(0, 0), (1, 1)]),)][1] - 1.0) < 1e-12


def test_pr_apply_full_relation_errors():
    state = PurifiedState(1, {(Rel([(0, 0), (0, 1)]),): {0: 1.0}})
    with pytest.raises(ValueError):
        pr_apply(state, 0, [0], 2)
    with pytest.raises(ValueError):
        pr_apply(state, 0, [0], 3)


def test_pr_apply_shared_slots():
    state = PurifiedState(1, {(Rel(), Rel([(1, 0)])): {0: 1.0}})
    out = pr_apply(state, 0, [0], 2, shared_slots=(0, 1))
    # the other slot's image {0} is avoided
    assert set(out.terms) == {(Rel([(0, 1)]), Rel([(1, 0)]))}


def test_pr_apply_entry_cap(monkeypatch):
    monkeypatch.setattr(relstate, "ENTRY_CAP", 4)
    state = PurifiedState(3, {(Rel(),): {0: 1.0}})
    with pytest.raises(MemoryError, match="4-entry cap"):
        pr_apply(state, 0, [0, 1, 2], 8)


def test_pr_isometry_inner_products():
    # images of orthogonal inputs stay orthogonal, same inputs stay unit
    N = 4
    cols = []
    for rel in all_rels(N, 1):
        for x in range(N):
            st0 = PurifiedState(2, {(rel,): {x: 1.0}})
            cols.append(((rel, x), pr_apply(st0, 0, [0, 1], N)))
    for (ka, va), (kb, vb) in itertools.combinations(cols, 2):
        expect = 1.0 if ka == kb else 0.0
        assert abs(va.inner(vb) - expect) <= 1e-10
    for _, v in cols[:8]:
        assert abs(v.inner(v) - 1.0) <= 1e-10


# ------------------------------------------------------------ collision free


def test_is_collision_free_basics():
    p = CFParams(2, 2, 2)
    assert is_collision_free([], p)
    assert is_collision_free([0, 1], p)
    assert not is_collision_free([1, 1], p)
    # fold-2: {0,1,2,3} has 0^3 == 1^2
    assert not is_collision_free([0, 1, 2, 3], p)
    with pytest.raises(ValueError):
        CFParams(2, 3, 2)
    with pytest.raises(ValueError):
        CFParams(0, 1, 2)
    with pytest.raises(ValueError, match="prefix length"):
        CFParams(1, -1, 3)
    assert cf_count([0, 1, 2, 3], p) is None
    with pytest.raises(ValueError, match="must lie in"):
        is_collision_free([4], p)


def collision_free_by_definition(strings, p):
    """Distinct strings whose equal-size subset prefix-XORs are distinct, for sizes <= fold."""
    prefixes = [y >> (p.n - p.prefix) for y in strings]
    if len(set(strings)) != len(strings):
        return False
    for size in range(1, p.fold + 1):
        xors = [np.bitwise_xor.reduce(c) for c in itertools.combinations(prefixes, size)]
        if len(set(xors)) != len(xors):
            return False
    return True


CF_CASES = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.builds(CFParams, st.integers(1, 3), st.integers(0, n), st.just(n)),
        st.lists(st.integers(0, 2**n - 1), max_size=6),
    )
)


@settings(max_examples=200, deadline=None)
@given(CF_CASES)
def test_is_collision_free_matches_the_definition(case):
    p, strings = case
    assert is_collision_free(strings, p) == collision_free_by_definition(strings, p)


@settings(max_examples=100, deadline=None)
@given(CF_CASES, st.data())
def test_subsets_of_a_collision_free_set_are_collision_free(case, data):
    p, strings = case
    s = sorted(set(strings))
    assume(is_collision_free(s, p))
    sub = data.draw(st.lists(st.sampled_from(s), unique=True) if s else st.just([]), label="subset")
    assert is_collision_free(sub, p)


def test_cf_set_closed_form_fold_one():
    # full-length prefixes at fold 1: anything outside S keeps the set cf
    p = CFParams(1, 2, 2)
    assert cf_set({0}, p) == {1, 2, 3}
    for n in (2, 3, 4):
        pn = CFParams(1, n, n)
        s = set(range(min(3, 2**n - 1)))
        assert len(cf_set(s, pn)) == 2**n - len(s)


def test_cf_set_fold_two_example():
    p = CFParams(2, 2, 2)
    out = cf_set({0, 1}, p)
    # adding y=2 gives the pair-XOR collision 0^2 == 1^3 candidate check:
    # subsets {0,1},{0,y},{1,y} must have distinct XORs
    for y in out:
        assert is_collision_free({0, 1, y}, p)
    for y in set(range(4)) - out - {0, 1}:
        assert not is_collision_free({0, 1, y}, p)


def test_cf_set_rejects_bad_input():
    with pytest.raises(ValueError):
        cf_set({0, 1, 2, 3}, CFParams(2, 2, 2))
    with pytest.raises(ValueError):
        cf_set(range(7), CFParams(1, 3, 3))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 3),
    st.sets(st.integers(0, 31), max_size=4),
    st.integers(0, 31),
    st.data(),
)
def test_cf_monotone_and_counter(n, fold, s, extra, data):
    s = {y % 2**n for y in s}
    extra %= 2**n
    p = CFParams(fold, data.draw(st.integers(1, n), label="lam"), n)
    assume(is_collision_free(s, p))
    full = cf_set(s, p)
    assert cf_count(s, p) == len(full)
    # growing S can only shrink the candidate set
    if extra in full:
        bigger = cf_set(s | {extra}, p)
        assert bigger <= full


def test_cf_membership_consistency():
    # y in cf_set(S) iff S + {y} is collision-free
    p = CFParams(3, 3, 4)
    s = {0, 5}
    assert is_collision_free(s, p)
    out = cf_set(s, p)
    for y in range(16):
        if y in s:
            continue
        assert (y in out) == is_collision_free(s | {y}, p)


# --------------------------------------------------------------------- corx


def test_corx_single_pair():
    r = Rel([(1, 3)])
    assert corx(r, 2) == {((1, 3), (1, 3))}
    assert corx(r, 0) == set()


def test_corx_chain_pair():
    # (x,z),(z^k,y): the chained pair is present for the chaining key
    r = Rel([(0, 3), (3 ^ 5, 6)])
    assert ((0, 3), (3 ^ 5, 6)) in corx(r, 5)


# ------------------------------------------------------------ label surgery


def two_label_state():
    return PurifiedState(
        1,
        {
            (Rel([(0, 0)]), 0): {0: 0.6 + 0j, 1: 0.3j},
            (Rel([(1, 1)]), 1): {1: 0.74161984870957 + 0j},
        },
    )


RELS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4, unique_by=lambda p: p[1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(RELS, st.integers(0, 7)), min_size=1, max_size=6))
def test_corx_count_is_corx_size(labels):
    state = PurifiedState(1, {(Rel(pairs), k): {0: 1.0} for pairs, k in labels})
    expect = [len(corx(rel, k)) for rel, k in state.labels()]
    assert corx_count(state, 0, 1).tolist() == expect


def test_project_good_splits_mass():
    st0 = two_label_state()
    key = key_column(st0, 1)
    good = project_good(st0, key == 0)
    bad = project_good(st0, key == 1)
    assert abs(good.norm_sq() + bad.norm_sq() - st0.norm_sq()) < 1e-12


def test_label_rewrite_injective_only():
    st0 = two_label_state()
    # (Rel, k) -> (k, Rel): the two slots trade columns
    moved = label_rewrite(st0, [key_column(st0, 1), pair_columns(st0, 0)])
    assert dict(moved.terms) == {(0, Rel([(0, 0)])): {0: 0.6, 1: 0.3j}, (1, Rel([(1, 1)])): {1: 0.74161984870957}}
    with pytest.raises(ValueError, match="not injective"):
        label_rewrite(st0, [np.zeros(2, dtype=np.int64)])
    with pytest.raises(ValueError, match="one row per label"):
        label_rewrite(st0, [np.zeros(1, dtype=np.int64)])


def test_from_columns_merges_equal_rows():
    keys = np.array([5, 3, 5], dtype=np.int64)
    amps = np.array([0.5, 0.25, 0.5, 1.0], dtype=complex)
    st0 = PurifiedState.from_columns(1, [keys], np.array([0, 1, 2, 2]), np.array([0, 1, 0, 1]), amps)
    assert dict(st0.terms) == {(3,): {1: 0.25}, (5,): {0: 1.0, 1: 1.0}}


def test_from_columns_writes_what_pair_columns_read():
    pairs = (np.array([[0], [7]]), np.array([[3], [2**31 - 1]]), True)
    st0 = PurifiedState.from_columns(1, [pairs], np.arange(2), np.zeros(2, dtype=np.int64), np.ones(2, dtype=complex))
    assert set(st0.terms) == {(Rel([(0, 3)]),), (Rel([(7, 2**31 - 1)]),)}
    x, y, on = pair_columns(st0, 0)
    assert x[:, 0].tolist() == [0, 7] and y[:, 0].tolist() == [3, 2**31 - 1] and on.all()
    with pytest.raises(ValueError):
        PurifiedState.from_columns(1, [(np.array([[2**31]]), np.array([[0]]), True)], [0], [0], np.ones(1, dtype=complex))


@pytest.mark.parametrize("bad", [-1, -(2**70), 2**31, 2**32 + 1, 2**63 - 1, 2**63, 2**64])
def test_pair_values_outside_31_bits_are_refused(bad):
    for pair in [(bad, 0), (0, bad)]:
        with pytest.raises(ValueError, match="label slot 0 cannot hold a Rel"):
            PurifiedState(1, {(Rel([pair]),): {0: 1.0}})
    # slot columns: only present pairs are tested, so the padding may hold anything
    dtype = np.int64 if -(2**63) <= bad < 2**63 else object

    def state(x):
        pairs = (np.array([[x, 2**40]], dtype=dtype), np.array([[5, -5]]), np.array([[True, False]]))
        return PurifiedState.from_columns(1, [pairs], [0], [0], np.ones(1, dtype=complex))

    with pytest.raises(ValueError, match="label slot 0 cannot hold a Rel"):
        state(bad)
    assert state(2**31 - 1).labels() == [(Rel([(2**31 - 1, 5)]),)]


def test_pr_apply_reuses_a_free_last_column_and_widens_a_full_block():
    full = PurifiedState(2, {(Rel([(3, 2)]),): {1: 1.0}})
    # the same label in a two-column block whose last column no label uses
    pairs = (np.array([[3, 0]]), np.array([[2, 0]]), np.array([[True, False]]))
    spare = PurifiedState.from_columns(2, [pairs], [0], [1], np.ones(1, dtype=complex))
    assert full.schema == (("rel", 1),) and spare.schema == (("rel", 2),)
    for state in (full, spare):
        out = pr_apply(state, 0, [0, 1], 4)
        assert out.schema == (("rel", 2),)
        x, y, on = pair_columns(out, 0)
        # the new pair (1, y) sorts before (3, 2)
        assert on.all() and x.tolist() == [[1, 3]] * 3 and y.tolist() == [[0, 2], [1, 2], [3, 2]]
        assert dict(out.terms) == dict(pr_apply(full, 0, [0, 1], 4).terms)
    out = pr_apply(out, 0, [0, 1], 4)
    assert out.schema == (("rel", 3),)
    assert all(lab.pairs == tuple(sorted(lab.pairs)) and len(lab) == 3 for lab, in out.labels())


# ------------------------------------------------- collision-free recording


def test_pcfpr_uniform_over_cf_set():
    # (init label, index, cf, expected free outputs). The second case holds 7
    # recorded outputs with distinct prefixes, which leave 9 free ones at
    # fold 1; the brute-force cf_set refuses more than 6 recorded outputs.
    # The fold-2 and fold-3 cases take their free outputs from cf_set over
    # the joint image of both slots; each drops outputs that fold 1 keeps.
    rel7 = Rel([(x, 2 * x + 1) for x in range(7)])
    cases = [
        ((Rel(), Rel([(0, 1)])), 0, CFParams(1, 2, 2), [0, 2, 3]),
        ((rel7,), 7, CFParams(1, 4, 4), [y for y in range(16) if y % 2 == 0 or y > 13]),
        ((Rel([(0, 1), (2, 11)]), Rel([(5, 6)])), 3, CFParams(2, 3, 4), cf_set((1, 6, 11), CFParams(2, 3, 4))),
        ((Rel([(1, 2), (4, 5)]), Rel([(7, 12)])), 9, CFParams(3, 4, 4), cf_set((2, 5, 12), CFParams(3, 4, 4))),
    ]
    assert [len(free) for *_, free in cases] == [3, 9, 8, 12]
    for init, index, p, free in cases:
        n = p.n
        state = PurifiedState(n, {init: {index: 1.0}})
        out = pr_apply(state, 0, list(range(n)), 2**n, shared_slots=tuple(range(1, len(init))), cf=p)
        rel = init[0]
        assert set(out.terms) == {(Rel([*rel.pairs, (index, y)]), *init[1:]) for y in free}
        for label, vec in out.terms.items():
            (y,) = vec
            assert (index, y) in label[0].pairs
            assert abs(vec[y] - 1.0 / math.sqrt(len(free))) < 1e-12


def test_pcfpr_preconditions():
    p = CFParams(1, 2, 2)
    overlap = PurifiedState(2, {(Rel([(0, 1)]), Rel([(1, 1)])): {0: 1.0}})
    with pytest.raises(ValueError):
        pr_apply(overlap, 0, [0, 1], 4, shared_slots=(1,), cf=p)
    p2 = CFParams(2, 2, 2)
    # {0,1,2,3} breaks fold-2 collision freeness inside the slot
    bad = PurifiedState(2, {(Rel([(0, 0), (1, 1), (2, 2), (3, 3)]), Rel()): {0: 1.0}})
    with pytest.raises(ValueError):
        pr_apply(bad, 0, [0, 1], 4, shared_slots=(1,), cf=p2)
    # two shared slots hold output 2; {0,1} and {2,3} are each collision-free
    # at fold 2, but their joint image has 0^3 == 1^2
    shared = PurifiedState(2, {(Rel(), Rel([(0, 2)]), Rel([(1, 2)])): {0: 1.0}})
    joint = PurifiedState(2, {(Rel([(0, 0), (1, 1)]), Rel([(0, 2), (1, 3)])): {0: 1.0}})
    for state, slots, cf in ((shared, (1, 2), p), (joint, (1,), p2)):
        with pytest.raises(ValueError, match="collision-free|disjoint"):
            pr_apply(state, 0, [0, 1], 4, shared_slots=slots, cf=cf)


def test_key_pauli_refuses_an_unknown_kind():
    # a kind other than X or Z used to apply Z
    state = PurifiedState(2, {(Rel(), 1): {0b10: 1.0}, (Rel(), 0): {0b10: 1.0}})
    assert dict(key_pauli(state, "Z", 1, 1, [0, 1]).terms) == {(Rel(), 1): {0b10: -1.0}, (Rel(), 0): {0b10: 1.0}}
    for kind in ("Y", "z", None):
        with pytest.raises(ValueError, match="unknown Pauli kind"):
            key_pauli(state, kind, 1, 1, [0, 1])


@pytest.mark.parametrize("kind", ["X", "Z"])
def test_one_key_action_for_the_matrix_and_the_recording(kind):
    # X^k sends v to v ^ k; Z^k flips the sign where v & k has odd parity
    for lam in range(5):
        for k, v in itertools.product(range(2**lam), repeat=2):
            w, odd = key_pauli_action(kind, k, v)
            assert (w, bool(odd)) == ((v ^ k, False) if kind == "X" else (v, bin(v & k).count("1") % 2 == 1))
            sign = -1.0 if odd else 1.0
            assert np.array_equal(pauli_string(kind, k, lam, lam)[:, v], sign * np.eye(2**lam)[w])
            state = PurifiedState(lam, {(Rel(), k): {v: 1.0}})
            assert dict(key_pauli(state, kind, lam, 1, range(lam)).terms) == {(Rel(), k): {w: sign}}


# -------------------------------------------------------------- state class


def test_purified_state_helpers(monkeypatch):
    st0 = two_label_state()
    assert st0.label_count() == 2
    assert st0.entry_count() == 3
    assert abs(st0.norm_sq() - 1.0) < 1e-9

    # a Hadamard spreads |0> over two entries: apply_matrix checks the cap on its output
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    basis = PurifiedState(1, {(0,): {0: 1.0}})
    monkeypatch.setattr(relstate, "ENTRY_CAP", 2)
    assert basis.apply_matrix(hadamard).entry_count() == 2
    monkeypatch.setattr(relstate, "ENTRY_CAP", 1)
    with pytest.raises(MemoryError, match="1-entry cap"):
        basis.apply_matrix(hadamard)


@pytest.mark.parametrize(
    "labels,kind",
    [
        ([("x",)], "str"),
        ([(Rel(), frozenset({1}))], "frozenset"),
        ([(Rel(), 0), (Rel(), Rel())], "Rel"),
        ([(Rel(),), (3,)], "int"),
        ([((Rel(), Rel()),), ((Rel(), 1),)], "tuple"),
        ([((),)], "tuple"),
        ([(Rel([(0, 2**31)]),)], "Rel"),
        ([(2**62,)], "int"),
        # a tuple of Rel is no slot kind: one relation per w is one Rel slot each
        ([(Rel(), (Rel(), Rel())), (Rel(), (Rel([(0, 1)]), Rel()))], "tuple"),
    ],
)
def test_label_slots_hold_rel_int_or_rel_family(labels, kind):
    slot = len(labels[0]) - 1
    with pytest.raises(ValueError, match=f"label slot {slot} cannot hold a {kind}:"):
        PurifiedState(1, {lab: {0: 1.0} for lab in labels})


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_norm_sq_is_one_left_to_right_sum(monkeypatch, chunk):
    count = 3 * relstate._ENTRY_CHUNK + 5
    rng = np.random.default_rng(11)
    amps = (rng.normal(size=count) + 1j * rng.normal(size=count)) * 10.0 ** rng.integers(-6, 6, size=count)
    half = count // 2
    state = PurifiedState(17, {(0,): dict(enumerate(amps[:half])), (1,): dict(enumerate(amps[half:]))})
    if chunk is not None:
        monkeypatch.setattr(relstate, "_ENTRY_CHUNK", chunk)
    assert state.norm_sq() == float(np.cumsum(np.abs(state.amplitudes) ** 2)[-1])
    assert PurifiedState(1, {}).norm_sq() == 0.0


def test_purified_inner_and_diff():
    a = PurifiedState(1, {(0,): {0: 1.0}})
    b = PurifiedState(1, {(0,): {0: 0.5}, (1,): {1: 0.5}})
    assert abs(a.inner(b) - 0.5) < 1e-12
    assert abs(a.max_diff(b) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        a.inner(PurifiedState(2, {}))
    with pytest.raises(ValueError, match="register mismatch"):
        a.max_diff(PurifiedState(2, {(0,): {0: 1.0}}))


def test_max_diff_of_one_layout_is_the_union_difference():
    # equal label tables and entries take the entrywise path; an extra empty
    # label forces the union over labels, which must read the same bits
    rng = np.random.default_rng(3)
    labels = [(Rel([(0, 1)]), 2), (Rel([(1, 3), (2, 0)]), 5)]
    a, b = (PurifiedState(2, {lab: {i: complex(*rng.normal(size=2)) for i in range(3)} for lab in labels}) for _ in "ab")
    # b's labels and one more: the first label with key 7
    pairs = tuple(np.vstack([c, c[:1]]) for c in pair_columns(b, 0))
    keys = np.append(key_column(b, 1), 7)
    wide = PurifiedState.from_columns(2, [pairs, keys], b.label_ids, b.indices, b.amplitudes.copy())
    assert wide.label_count() == 3 and wide.entry_count() == b.entry_count()
    assert a.max_diff(b) == a.max_diff(wide) > 0.0
    assert a.max_diff(a) == 0.0


def dict_inner_and_diff(a, b):
    """<a|b> and max_diff(a, b) over the decoded terms, label by label."""
    ta, tb = a.terms, b.terms
    inner = sum(ta[lab][i].conjugate() * vec[i] for lab, vec in tb.items() if lab in ta for i in vec if i in ta[lab])
    diffs = [
        abs(ta.get(lab, {}).get(i, 0) - tb.get(lab, {}).get(i, 0))
        for lab in set(ta) | set(tb)
        for i in set(ta.get(lab, {})) | set(tb.get(lab, {}))
    ]
    return inner, max(diffs, default=0.0)


@pytest.mark.parametrize(
    "labels_a,labels_b",
    [
        # Rel widths 2 and 1, int slots, labels in another order
        (
            [(Rel([(0, 1)]), 1, 3), (Rel([(0, 1), (1, 2)]), 7, 4), (Rel(), 8, 4)],
            [(Rel([(0, 1)]), 1, 3), (Rel(), 8, 4), (Rel([(1, 2)]), 7, 4)],
        ),
        # an int slot against a Rel slot
        ([(Rel([(0, 1)]), 3), (Rel([(2, 1)]), 5)], [(Rel([(0, 1)]), Rel([(0, 3)])), (Rel([(0, 1)]), Rel())]),
        # two Rel slots of other widths (one relation per w), and one label both states hold
        ([(Rel([(0, 1)]), Rel(), 0), (Rel(), Rel([(1, 1), (2, 2)]), 0)], [(Rel([(0, 1)]), Rel(), 0)]),
        ([(Rel([(0, 1)]),)], [(Rel([(0, 1)]),)]),
        # other slot counts, and an empty state
        ([(Rel([(0, 1)]), 1)], [(Rel([(0, 1)]),)]),
        ([(Rel([(0, 1)]), 1)], []),
        # two Rel slots against one
        ([(Rel([(0, 1)]), Rel())], [(Rel([(0, 1)]),)]),
    ],
)
def test_inner_and_diff_match_labels_across_layouts(labels_a, labels_b):
    rng = np.random.default_rng(5)

    def state(labels):
        return PurifiedState(2, {lab: {i: complex(*rng.normal(size=2)) for i in range(4)} for lab in labels})

    a, b = state(labels_a), state(labels_b)
    for x, y in ((a, b), (b, a)):
        inner, diff = dict_inner_and_diff(x, y)
        assert abs(x.inner(y) - inner) <= 1e-12
        assert abs(x.max_diff(y) - diff) <= 1e-12
