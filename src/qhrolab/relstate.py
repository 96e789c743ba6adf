"""Relation states and the recording maps.

A PurifiedState is a superposition over classical purification labels, each
label carrying a (sparse) amplitude vector on the adversary's registers.
Recording maps grow one relation slot per query; label-rewriting isometries
act on labels only and are invisible to the reduced adversary view.

Labels are interned as the rows of one int64 table (its format is owned by
labels.py; Rel is re-exported here) and amplitudes are kept as three entry
arrays, so every recording step, key layer and interleave is a handful of
whole-array operations (see PurifiedState).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .labels import (
    _PAIR_BITS,
    Rel,
    _column,
    _decode,
    _intern,
    _is_int,
    _table,
    add_pairs,
    common_ids,
    key_column,
    pair_columns,
)
from .linalg import _check_targets, key_pauli_action

ENTRY_CAP = 2**24  # total stored amplitude entries across all labels
_BLOCK_BYTES = 1 << 25  # bound on one dense complex block
_ENTRY_CHUNK = 1 << 14  # entries per bounded batch of norm_sq and _merge

__all__ = [
    "ENTRY_CAP",
    "Rel",
    "CFParams",
    "PurifiedState",
    "pr_apply",
    "classical_record",
    "key_pauli",
    "extract_bits",
    "cf_set",
    "cf_count",
    "is_collision_free",
    "project_good",
    "label_rewrite",
]


@dataclass(frozen=True)
class CFParams:
    """Fold bound, prefix length, and string length for collision freeness."""

    fold: int
    prefix: int
    n: int

    def __post_init__(self):
        if not 0 <= self.prefix <= self.n:
            raise ValueError("prefix length must lie in [0, n]")
        if self.fold < 1:
            raise ValueError("fold bound must be >= 1")


def extract_bits(indices, n_qubits, qubits):
    """Values of `qubits` (first qubit most significant) in each basis index;
    ValueError unless they are distinct and in [0, n_qubits)."""
    val = np.zeros_like(indices)
    for q in _check_targets(qubits, n_qubits):
        val = (val << 1) | ((indices >> (n_qubits - 1 - q)) & 1)
    return val


def _deposit_bits(indices, n_qubits, qubits, val):
    """Overwrite `qubits` of each basis index with the low bits of `val`."""
    nb = len(qubits)
    out = indices.copy()
    for b, q in enumerate(qubits):
        s = n_qubits - 1 - q
        out = (out & ~(1 << s)) | (((val >> (nb - 1 - b)) & 1) << s)
    return out


def _group_batches(ginv, n_groups, width):
    """(g0, g1, entries) for runs of whole groups whose dense block stays bounded."""
    order = np.argsort(ginv, kind="stable")
    bounds = np.searchsorted(ginv[order], np.arange(n_groups + 1))
    step = max(1, _BLOCK_BYTES // (16 * width))
    for g0 in range(0, n_groups, step):
        g1 = min(g0 + step, n_groups)
        yield g0, g1, order[bounds[g0] : bounds[g1]]


def _check_entries(count):
    """MemoryError if a state of `count` entries would pass ENTRY_CAP."""
    if count > ENTRY_CAP:
        raise MemoryError(f"purified state exceeds the {ENTRY_CAP}-entry cap")


def _key(n_qubits, lab, idx):
    """Entry sort key label << n_qubits | index."""
    if len(lab) and int(lab.max()) >= 1 << (62 - n_qubits):
        raise MemoryError("too many labels for the entry key")
    return (lab << n_qubits) | idx


def _merge(n_qubits, key, amp):
    """Entries sorted by key, with the amplitudes of equal keys summed.

    Consumes the writable `key` and `amp`: `amp` is permuted in place, in bounded
    chunks through the old key buffer, which then holds the indices.
    """
    order = np.argsort(key, kind="stable")
    key, spare = key[order], key
    for part in (amp.real, amp.imag):
        for lo in range(0, len(order), _ENTRY_CHUNK):
            spare[lo : lo + _ENTRY_CHUNK].view(np.float64)[...] = part[order[lo : lo + _ENTRY_CHUNK]]
        part[...] = spare.view(np.float64)
    del order
    head = np.concatenate(([True], key[1:] != key[:-1]))
    if not head.all():
        starts = np.flatnonzero(head)
        key, amp, spare = key[starts], np.add.reduceat(amp, starts), np.empty(len(starts), dtype=np.int64)
    idx = np.bitwise_and(key, (1 << n_qubits) - 1, out=spare)
    return np.right_shift(key, n_qubits, out=key), idx, amp


class PurifiedState:
    """Superposition over purification labels with sparse register vectors.

    Built from {label: {basis index: amplitude}}: a label is a tuple of
    slots, each holding a Rel or an int key (or from slot columns and
    entry arrays, `from_columns`), and `n_qubits` is the size of the
    adversary register the basis indices live on.
    Internally the labels are the distinct rows of the int64
    table `rows` (layout in `schema`, see the label table notes in labels.py), and
    the amplitudes are three entry arrays, `label_ids`, `indices` and
    `amplitudes`, distinct in (label id, index) and sorted by it. A label may
    hold no entries. `terms` decodes the state into a read-only mapping of the
    constructor's form.
    """

    def __init__(self, n_qubits, terms):
        if len({len(lab) for lab in terms}) > 1:
            raise ValueError("all labels of a state must have the same number of slots")
        table = _table([_column(s, v) for s, v in enumerate(zip(*terms))]) if terms else ((), np.zeros((0, 0), dtype=np.int64))
        sizes = [len(vec) for vec in terms.values()]
        count = sum(sizes)
        lab = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        idx = np.fromiter((i for vec in terms.values() for i in vec), dtype=np.int64, count=count)
        amp = np.fromiter((a for vec in terms.values() for a in vec.values()), dtype=complex, count=count)
        self._gather(n_qubits, *table, lab, idx, amp)

    @classmethod
    def from_columns(cls, n_qubits, slots, label_ids, indices, amplitudes):
        """Entry i is amplitudes[i] at basis index indices[i] of label row label_ids[i]
        of the slot columns `slots` (see _table); equal rows are one label, and
        entries that meet are summed. Consumes `amplitudes`."""
        return object.__new__(cls)._gather(n_qubits, *_table(slots), label_ids, indices, amplitudes)

    def _gather(self, n_qubits, schema, rows, lab, idx, amp):
        table, inv = _intern(rows)
        return self._set(n_qubits, schema, table, *_merge(n_qubits, _key(n_qubits, inv[lab], idx), amp))

    def _set(self, n_qubits, schema, rows, lab, idx, amp):
        self.n_qubits = n_qubits
        self.schema = schema
        for arr in (rows, lab, idx, amp):
            arr.flags.writeable = False
        self.rows, self.label_ids, self.indices, self.amplitudes = rows, lab, idx, amp
        self._terms = None
        return self

    def _make(self, schema, rows, lab, idx, amp, n_qubits=None):
        n = self.n_qubits if n_qubits is None else n_qubits
        return object.__new__(PurifiedState)._set(n, schema, rows, lab, idx, amp)

    def _with_entries(self, lab, idx, amp):
        return self._make(self.schema, self.rows, lab, idx, amp)

    def __repr__(self):
        return f"PurifiedState(n_qubits={self.n_qubits}, labels={self.label_count()}, entries={self.entry_count()})"

    def labels(self):
        """Decoded label tuples, one per table row."""
        return _decode(self.schema, self.rows)

    @property
    def terms(self):
        """Read-only {label: {basis index: amplitude}}, decoded once on first use."""
        if self._terms is None:
            bounds = np.searchsorted(self.label_ids, np.arange(self.label_count() + 1))
            idx, amp = self.indices.tolist(), self.amplitudes.tolist()
            out = {}
            for k, lab in enumerate(self.labels()):
                a, b = bounds[k], bounds[k + 1]
                out[lab] = MappingProxyType(dict(zip(idx[a:b], amp[a:b])))
            self._terms = MappingProxyType(out)
        return self._terms

    def entry_count(self):
        return len(self.amplitudes)

    def norm_sq(self, keep=None):
        """Sum of |a|^2 left to right in entry order; chunked, bitwise one cumsum.

        With a boolean label mask `keep`, only the entries of those labels
        count; the sum is bitwise that of project_good(self, keep).norm_sq().
        """
        total = 0.0
        for lo in range(0, self.entry_count(), _ENTRY_CHUNK):
            amp = self.amplitudes[lo : lo + _ENTRY_CHUNK]
            if keep is not None:
                amp = amp[keep[self.label_ids[lo : lo + _ENTRY_CHUNK]]]
            total = float(np.cumsum(np.append(total, np.abs(amp) ** 2))[-1])
        return total

    def label_count(self):
        return len(self.rows)

    def apply_matrix(self, mat, targets=None):
        """Apply a unitary to the adversary register of every label.

        Entries are grouped by (label, non-target bits); each group is one
        dense 2^k vector, and groups go through the gate in bounded blocks.
        Amplitudes of modulus <= 1e-15 are dropped.
        """
        n = self.n_qubits
        targets = list(range(n)) if targets is None else list(targets)
        mat = np.asarray(mat, dtype=complex)
        dk = 2 ** len(targets)
        local = extract_bits(self.indices, n, targets)
        rest = _deposit_bits(self.indices, n, targets, np.zeros_like(local))
        groups, ginv = np.unique((self.label_ids << n) | rest, return_inverse=True)
        labs, idxs, amps = [], [], []
        for g0, g1, sel in _group_batches(ginv, len(groups), dk):
            block = np.zeros((g1 - g0, dk), dtype=complex)
            block[ginv[sel] - g0, local[sel]] = self.amplitudes[sel]
            out = block @ mat.T
            gi, val = np.nonzero(np.abs(out) > 1e-15)
            g = groups[g0 + gi]
            labs.append(g >> n)
            idxs.append(_deposit_bits(g & ((1 << n) - 1), n, targets, val))
            amps.append(out[gi, val])
        if labs:
            lab, idx, amp = _merge(n, _key(n, np.concatenate(labs), np.concatenate(idxs)), np.concatenate(amps))
        else:
            lab, idx, amp = self.label_ids, self.indices, self.amplitudes
        _check_entries(len(amp))
        return self._with_entries(lab, idx, amp)

    def apply_sparse_map(self, perm, phases, targets):
        """Apply a phased permutation on `targets`: the register value v on
        `targets` goes to perm[v], times phases[v]. Keeps sparse vectors sparse.
        """
        n = self.n_qubits
        val = extract_bits(self.indices, n, targets)
        idx = _deposit_bits(self.indices, n, targets, perm[val])
        return self._with_entries(*_merge(n, _key(n, self.label_ids, idx), self.amplitudes * phases[val]))

    def _entry_keys(self, ids):
        return (ids[self.label_ids] << self.n_qubits) | self.indices

    def inner(self, other):
        if other.n_qubits != self.n_qubits:
            raise ValueError("register mismatch")
        ia, ib = common_ids(self, other)
        _, pa, pb = np.intersect1d(self._entry_keys(ia), other._entry_keys(ib), return_indices=True)
        return complex(np.sum(self.amplitudes[pa].conj() * other.amplitudes[pb]))

    def max_diff(self, other):
        """Largest amplitude difference over the union of labels/entries."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("register mismatch")
        if self.schema == other.schema and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("rows", "label_ids", "indices")
        ):  # one layout: the union below would pair entry i with entry i
            return float(np.max(np.abs(self.amplitudes - other.amplitudes), initial=0.0))
        ia, ib = common_ids(self, other)
        n = self.n_qubits
        keys = np.concatenate([(ia[self.label_ids] << n) | self.indices, (ib[other.label_ids] << n) | other.indices])
        if not len(keys):
            return 0.0
        amps = np.concatenate([self.amplitudes, -other.amplitudes])
        _, inv = np.unique(keys, return_inverse=True)
        re = np.bincount(inv, weights=amps.real)
        im = np.bincount(inv, weights=amps.imag)
        return float(np.max(np.hypot(re, im)))


# ---------------------------------------------------------- recording engine


def _free_outputs(state, slots, N):
    """(labels, N) mask of the outputs y < N outside the image of every given Rel slot."""
    free = np.ones((state.label_count(), N), dtype=bool)
    for slot in slots:
        _, y, on = pair_columns(state, slot)
        r, c = np.nonzero(on & (y < N))
        free[r, y[r, c]] = False
    return free


def pr_apply(state, relation_slot, input_qubits, N, shared_slots=None, cf=None):
    """One recording query: |x>|R> -> |F|^{-1/2} sum_{y in F} |y>|R+(x,y)>.

    The one recording step behind every recording map. The free outputs F of
    a label depend on the joint image of its target slot and the label slots
    in `shared_slots`: without `cf`, F holds the y < N outside that image;
    with a CFParams `cf` (cf.n = log2 N), F is the collision-free set of that
    image (the prefix rule, _blocked). The input register spans log2(N)
    qubits of the adversary register. ValueError where F is empty.

    Each entry (label l, index i, amplitude a) goes to a / sqrt(#F(l)) at
    label l + (x, y) and index i with y on the input qubits, for every y in
    F(l), x the input qubits' value in i; labels.add_pairs writes (x, y)
    into the target Rel slot. The new labels, one per distinct (label, x, y),
    are interned in place into the output table, so every path that
    reaches a relation lands on its one label; labels without entries are
    dropped, and entries that meet at one (label, index) are summed. The
    entry cap is checked against the output size before anything is built.
    Peak: the input, the output, the sort order and sorted keys of _merge,
    and rank-loop temporaries the size of the input.
    """
    nq = N.bit_length() - 1
    if 2**nq != N:
        raise ValueError("oracle dimension must be a power of two")
    if nq > _PAIR_BITS:
        raise ValueError("recorded pairs must lie in [0, 2^31)")
    if len(input_qubits) != nq:
        raise ValueError("input register must span log2(N) qubits")
    slots = [relation_slot] + [s for s in shared_slots or () if s != relation_slot]
    if not state.label_count():
        return state
    free = _free_outputs(state, slots, N) if cf is None else _cf_outputs(state, slots, cf)
    nfree = free.sum(axis=1)
    if np.any(nfree == 0):
        raise ValueError("recording map undefined: no available outputs")
    n = state.n_qubits
    lab, idx, amp = state.label_ids, state.indices, state.amplitudes
    per_entry = nfree[lab]
    total = int(per_entry.sum())
    _check_entries(total)
    free_y = np.flatnonzero(free) % N  # free outputs, label by label
    free_start = np.cumsum(nfree) - nfree
    ranks = range(int(nfree.max(initial=0)))
    # sources: distinct (label, x); triple (source s, rank r) sits at s_start[s] + r
    src_lab, ent_src = np.unique((lab << nq) | extract_bits(idx, n, input_qubits), return_inverse=True)
    src_lab, src_x = src_lab >> nq, src_lab & (N - 1)
    per_src = nfree[src_lab]
    s_start = np.cumsum(per_src) - per_src
    new_lab, new_x, new_y = np.empty((3, int(per_src.sum())), dtype=np.int64)
    for r in ranks:
        s = np.flatnonzero(per_src > r)
        t = s_start[s] + r
        new_lab[t] = src_lab[s]
        new_x[t] = src_x[s]
        new_y[t] = free_y[free_start[src_lab[s]] + r]
    del src_lab, src_x, per_src, s, t
    schema, new = add_pairs(state, relation_slot, new_lab, new_x, new_y)
    del new_lab, new_x, new_y
    table, t_lab = _intern(new)
    del new
    # every entry times every free output of its label
    key = np.empty(total, dtype=np.int64)
    out = np.empty(total, dtype=complex)
    scaled = amp * (1.0 / np.sqrt(nfree))[lab]
    start = 0
    for r in ranks:
        e = np.flatnonzero(per_entry > r)
        stop = start + len(e)
        y = free_y[free_start[lab[e]] + r]
        key[start:stop] = _key(n, t_lab[s_start[ent_src[e]] + r], _deposit_bits(idx[e], n, input_qubits, y))
        out[start:stop] = scaled[e]
        start = stop
    del t_lab, scaled, per_entry, ent_src, free_y, free_start, s_start, e, y
    return state._make(schema, table, *_merge(n, key, out))


def _blocked(strings, params: CFParams):
    """The lam-bit prefixes (lam = params.prefix) that a new string may not
    have, or None if S is not collision-free.

    S is collision-free when, for every size k <= fold, its size-k subset
    prefix-XORs are distinct. Adding y with prefix p makes the new size-k
    XORs p ^ X, X a size-(k-1) XOR of S; these stay distinct among
    themselves (XOR by p is a bijection), so y keeps S collision-free iff no
    p ^ X is a size-k XOR of S, for k <= min(fold, |S|). A y in S fails at
    k = 1, so this depends on the prefix alone. One walk over the sizes
    checks S and collects the blocked prefixes.
    """
    prefixes = [y >> (params.n - params.prefix) for y in strings]
    if any(not 0 <= p < 2**params.prefix for p in prefixes):  # y outside [0, 2^n)
        raise ValueError(f"strings must lie in [0, 2^{params.n})")
    blocked, prev = set(), [0]
    for k in range(1, min(params.fold, len(prefixes)) + 1):
        cur = [functools.reduce(operator.xor, comb) for comb in itertools.combinations(prefixes, k)]
        if len(set(cur)) != len(cur):
            return None
        blocked.update(a ^ b for a in cur for b in prev)
        prev = cur
    return blocked


def is_collision_free(strings, params: CFParams) -> bool:
    """Equal-size subset prefix-XORs are all distinct, for sizes <= fold."""
    return _blocked(strings, params) is not None


def cf_set(strings, params: CFParams):
    """All y not in S whose addition keeps S collision-free.

    The brute-force reference of the prefix rule (_blocked), kept for
    cross-checks only: exhaustive over {0,1}^n, one candidate at a time.
    """
    s = set(strings)
    if not is_collision_free(s, params):
        raise ValueError("input set is not collision-free")
    if params.n > 12 or len(s) > 6 or params.fold > 3:
        raise ValueError("parameters beyond the brute-force envelope")
    return {y for y in range(2**params.n) if y not in s and is_collision_free(s | {y}, params)}


def cf_count(strings, params: CFParams) -> int | None:
    """|cf_set(strings)| by the prefix rule, or None if S is not collision-free.

    Every y with a prefix that S does not block is free and no other y is,
    so the count is #free prefixes * 2^(n - lam).
    """
    blocked = _blocked(strings, params)
    return None if blocked is None else (2**params.prefix - len(blocked)) << (params.n - params.prefix)


def _cf_outputs(state, slots, params: CFParams):
    """(labels, 2^n) mask of the collision-free outputs of the joint image
    of the given Rel slots, by one _blocked call per distinct joint image.

    The joint image keeps every output of every slot, so it is collision-free
    only if each slot's image is and no two slots share an output (a shared
    output repeats its prefix at size 1).
    """
    # outputs are >= 0, so -1 marks an unused pair position
    ys = np.hstack([np.where(on, y, -1) for _, y, on in (pair_columns(state, s) for s in slots)])
    joints, inv = _intern(np.sort(ys, axis=1))
    free_joint = np.ones((len(joints), 2**params.prefix), dtype=bool)
    for d, row in enumerate(joints.tolist()):
        blocked = _blocked([y for y in row if y >= 0], params)
        if blocked is None:
            raise ValueError("relation slots share an output or their joint image is not collision-free")
        free_joint[d, list(blocked)] = False
    return free_joint[:, np.arange(2**params.n) >> (params.n - params.prefix)][inv]


def classical_record(state, oracle, w, key_slot):
    """Classical query w: a register write plus pr_apply.

    Per label, x = oracle.input_of(k, w), k the label's key (0 when key_slot
    is None), is written into a fresh oracle.n-qubit register, and one
    pr_apply on that register records it in the Rel slot oracle.rel_slot[w].
    `oracle` is a harness ClassicalPROracle. ValueError unless every input
    is an int in [0, 2^n).
    """
    n, m, rows, slot = oracle.n, state.n_qubits, state.rows, oracle.rel_slot[w]
    keys = np.zeros(len(rows), dtype=np.int64) if key_slot is None or not len(rows) else key_column(state, key_slot)
    uk, kinv = np.unique(keys, return_inverse=True)
    x = [oracle.input_of(k, w) for k in uk.tolist()]
    for v in x:
        if not (_is_int(v) and 0 <= v < 2**n):
            raise ValueError(f"classical input {v!r} of w = {w} is not an int in [0, 2^n), n = {n}")
    idx = (state.indices << n) | np.array(x, dtype=np.int64)[kinv][state.label_ids]
    wide = state._make(state.schema, rows, state.label_ids, idx, state.amplitudes, m + n)
    return pr_apply(wide, slot, range(m, m + n), 2**n)


def key_pauli(state, kind, lam, key_slot, input_qubits):
    """The key layer linalg.key_pauli_action(kind, k, .) of each label's key k on the input's lam-bit prefix."""
    if not state.label_count():
        return state
    n = state.n_qubits
    prefix = _check_targets(input_qubits, n)[:lam]
    val, odd = key_pauli_action(kind, key_column(state, key_slot)[state.label_ids], extract_bits(state.indices, n, prefix))
    idx = _deposit_bits(state.indices, n, prefix, val)
    return state._with_entries(*_merge(n, _key(n, state.label_ids, idx), np.where(odd, -state.amplitudes, state.amplitudes)))


def project_good(state, keep):
    """The sub-state on the labels of the boolean mask `keep` (subnormalized)."""
    on = keep[state.label_ids]
    lab = (np.cumsum(keep) - 1)[state.label_ids[on]]
    return state._make(state.schema, state.rows[keep], lab, state.indices[on], state.amplitudes[on])


def label_rewrite(state, slots):
    """The state with label i moved to row i of the slot columns `slots` (see
    _table). Amplitude vectors are untouched. Raises if two labels meet, which
    would make the rewrite non-isometric."""
    schema, rows = _table(slots)
    if len(rows) != state.label_count():
        raise ValueError("a label rewrite needs one row per label")
    amp = state.amplitudes.copy()
    out = object.__new__(PurifiedState)._gather(state.n_qubits, schema, rows, state.label_ids, state.indices, amp)
    if out.label_count() < state.label_count():
        raise ValueError(f"label rewrite is not injective: {state.label_count()} labels meet in {out.label_count()}")
    return out
