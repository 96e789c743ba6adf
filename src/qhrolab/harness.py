"""Adversary programs and their execution.

A program is data: an ordered list of interleaving unitaries and oracle
queries. It can run against concrete sampled unitaries (run_concrete),
against exact purified recording oracles (run_pr), or against classical-query
function-state oracles, producing the adversary's view as a density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import OracleDescriptor
from .linalg import (
    DensityMatrix,
    _check_cap,
    _check_key,
    _check_targets,
    _check_unitary,
    _haar_stack,
    _qubits_of,
    _trace_distance,
    apply_gate,
    qubits_first,
    qubits_restore,
    trial_rng,
)
from .labels import _is_int, label_mask
from .relstate import PurifiedState, classical_record, extract_bits, key_pauli, pr_apply

__all__ = [
    "Interleave",
    "QuantumQuery",
    "ClassicalQuery",
    "AdversaryProgram",
    "KeyInit",
    "ClassicalPROracle",
    "VIEW_QUBIT_CAP",
    "run_concrete",
    "run_pr",
    "key_sliced_view",
    "reduce_view",
    "view_of_state",
    "trial_stacks",
    "haar_view_mc",
    "bootstrap_td_stderr",
    "bootstrap_td_pair",
    "haar_interleave",
    "phased_permutation_interleave",
]


@dataclass(frozen=True)
class Interleave:
    """A fixed unitary layer: exactly one of `u`, a 2^k x 2^k unitary array,
    and `sparse_map`, a phased permutation that keeps purified vectors sparse:
    arrays (perm, phases) over the 2^k basis values of `targets`, value v
    going to perm[v] times phases[v]. Both are checked once here, where
    `targets` None becomes qubits 0..k-1."""

    u: np.ndarray | None = None
    targets: tuple | None = None
    sparse_map: object = None

    def __post_init__(self):
        if (self.u is None) == (self.sparse_map is None):
            raise ValueError("exactly one of u / sparse_map must be given")
        if self.u is not None:
            u = np.asarray(self.u, dtype=complex)
            k = _qubits_of(len(u)) if u.ndim == 2 and u.shape[0] == u.shape[1] else None
            if k is None:
                raise ValueError("interleave unitary must be square with a power-of-two side")
            _check_cap(k)
            _check_unitary(u)
            object.__setattr__(self, "u", u)
        else:
            perm, phases = map(np.asarray, self.sparse_map)
            k = _qubits_of(len(perm)) if self.targets is None else len(self.targets)
            ok = k is not None and perm.dtype.kind in "iu" and np.array_equal(np.sort(perm), np.arange(2**k))
            if not ok or phases.shape != perm.shape or np.any(abs(abs(phases) - 1) > 1e-9):
                raise ValueError("a sparse map permutes the 2^k values of its k targets, with unit-modulus phases")
            object.__setattr__(self, "sparse_map", (perm, phases))
        targets = tuple(range(k) if self.targets is None else self.targets)
        if len(targets) != k:
            raise ValueError(f"a 2^{k} x 2^{k} gate takes {k} targets, not {len(targets)}")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class QuantumQuery:
    oracle_id: str
    input_qubits: tuple | None = None  # defaults to the first n qubits


@dataclass(frozen=True)
class ClassicalQuery:
    oracle_id: str
    w: int


@dataclass(frozen=True)
class AdversaryProgram:
    """n oracle qubits, m_anc ancillas, and an ordered step list."""

    n: int
    m_anc: int = 0
    steps: tuple = ()

    @property
    def reg_qubits(self):
        return self.n + self.m_anc


@dataclass(frozen=True)
class KeyInit:
    """Marks a label slot initialized to the uniform superposition of the keys 0 .. 2^lam - 1, lam an int >= 0."""

    lam: int

    def __post_init__(self):
        if not (_is_int(self.lam) and self.lam >= 0):
            raise ValueError(f"a key slot needs an int lam >= 0, not {self.lam!r}")


@dataclass(frozen=True)
class ClassicalPROracle:
    """Recording semantics for a classical query.

    input_of(k, w) is the recorded input, of n >= 1 qubits, of query w at
    key k (0 without a key slot). Query w records into the Rel label slot
    rel_slot[w] (one relation per w answers each w from its own oracle), and
    its output avoids the outputs of that slot only.
    """

    n: int
    rel_slot: tuple
    input_of: object

    def __post_init__(self):
        slots = self.rel_slot if isinstance(self.rel_slot, tuple) else ()
        if not (_is_int(self.n) and self.n >= 1 and slots and all(map(_is_int, slots))):
            raise ValueError(f"a classical recorder needs an int n >= 1 and a non-empty tuple of int slots, not {self!r}")


def _input_qubits(program, q):
    return tuple(q.input_qubits) if q.input_qubits is not None else tuple(range(program.n))


# ---------------------------------------------------------------- concrete


def _pure_views(states, keep) -> np.ndarray:
    """The density arrays of a (T, 2^q) stack of pure states, partial-traced to `keep` qubits if given."""
    if keep is None:
        return states[:, :, None] * states.conj()[:, None, :]
    m, _ = qubits_first(states, keep, _qubits_of(states.shape[-1]))
    return m @ m.conj().swapaxes(-1, -2)


def view_of_state(amps, keep=None) -> DensityMatrix:
    """Density of a pure state's 2^q amplitudes, optionally partial-traced to `keep` qubits."""
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 1 or _qubits_of(amps.size) is None:
        raise ValueError("a pure state is a vector of 2^q amplitudes")
    return DensityMatrix(_pure_views(amps[None], keep)[0])


def _stack(name, arr, count, shape=None):
    """arr if it is a stack of `count` arrays of `shape`, by default one axis
    of 2^a amplitudes (any count while count is 1); else ValueError."""
    side = np.shape(arr)[-1] if np.ndim(arr) else 0
    ok = isinstance(arr, np.ndarray) and arr.shape[1:] == (shape or (side,)) and _qubits_of(side) is not None
    if not ok or count > 1 and len(arr) != count:
        raise ValueError(f"oracle {name!r} is not a stack of {count if count > 1 else 'T'} arrays of shape {shape or '(2^a,)'}")
    return arr


def run_concrete(program: AdversaryProgram, bindings: dict) -> np.ndarray:
    """Execute a stack of T trials: a (T, 2^q) array. A quantum binding is a
    (T, 2^n, 2^n) stack of unitaries, a classical one a function w -> (T, 2^a)
    stack of replies; the state is a stack of one until a binding sets T."""
    q = program.reg_qubits
    state = np.eye(1, 2**q, dtype=complex)
    for step in program.steps:
        if isinstance(step, Interleave):
            if step.u is None:
                perm, phases = step.sparse_map
                mat, order = qubits_first(state, step.targets, q)
                out = np.zeros_like(mat)
                out[:, perm] = phases[:, None] * mat
                state = qubits_restore(out, order)
            else:
                state = apply_gate(state, step.u, step.targets, q)
        elif isinstance(step, QuantumQuery):
            targets = list(_input_qubits(program, step))
            u = _stack(step.oracle_id, bindings[step.oracle_id], len(state), (2 ** len(targets),) * 2)
            state = apply_gate(state, u, targets, q)
        elif isinstance(step, ClassicalQuery):
            oracle = bindings[step.oracle_id]
            ans = _stack(step.oracle_id, oracle(step.w) if callable(oracle) else None, len(state))
            q += _qubits_of(ans.shape[1])
            state = (state[:, :, None] * ans[:, None, :]).reshape(len(ans), -1)
        else:
            raise ValueError(f"unknown step {step!r}")
    return state


# ---------------------------------------------------------------- purified


def run_pr(program: AdversaryProgram, bindings: dict, init_label) -> PurifiedState:
    """Exact purified execution.

    init_label is a tuple of initial slot values, each a Rel or the key: an
    int, or a KeyInit(lam) that expands into the uniform key superposition.
    Key Pauli layers and classical inputs read the key slot; _check_queries
    checks every query before the first step.
    """
    key_slot = _check_queries(program, bindings, init_label)
    labels = [()]
    amp = 1.0
    for slot in init_label:
        if isinstance(slot, KeyInit):
            labels = [l + (k,) for l in labels for k in range(2**slot.lam)]
            amp *= 2 ** (-slot.lam / 2.0)
        else:
            labels = [l + (slot,) for l in labels]
    state = PurifiedState(program.reg_qubits, {l: {0: complex(amp)} for l in labels})
    for step in program.steps:
        if isinstance(step, Interleave):
            if step.u is None:
                state = state.apply_sparse_map(*step.sparse_map, step.targets)
            else:
                state = state.apply_matrix(step.u, step.targets)
        elif isinstance(step, QuantumQuery):
            desc, targets = bindings[step.oracle_id], list(_input_qubits(program, step))
            for s in desc.steps:
                if s[0] == "pr":
                    state = pr_apply(state, s[1], targets, 2**desc.n, desc.shared_slots, s[2])
                else:
                    state = key_pauli(state, s[1], desc.lam, key_slot, targets)
        else:
            state = classical_record(state, bindings[step.oracle_id], step.w, key_slot)
    return state


def _check_queries(program, bindings, init_label):
    """init_label's one key slot (an int or a KeyInit) or None. ValueError for
    a second key slot, an oracle recording into or avoiding it, an unknown
    step, a binding of the wrong type, an input register not of desc.n distinct
    qubits, a Pauli layer without a key slot or narrower than its keys, or a w without a Rel slot."""
    slots = [i for i, s in enumerate(init_label) if isinstance(s, (int, np.integer, KeyInit))]
    if len(slots) > 1:
        raise ValueError(f"an init label holds at most one key slot, not {len(slots)}")
    key, q = slots[0] if slots else None, program.reg_qubits
    for step in program.steps:
        oracle = bindings[step.oracle_id] if isinstance(step, (QuantumQuery, ClassicalQuery)) else None
        if isinstance(step, QuantumQuery):
            width = len(_check_targets(_input_qubits(program, step), q))
            if not isinstance(oracle, OracleDescriptor) or oracle.n != width:
                raise ValueError(f"oracle {step.oracle_id!r} is not a descriptor of {width} qubits")
            if any(s[0] == "pauli" for s in oracle.steps):
                if key is None:
                    raise ValueError("a key Pauli layer needs a key slot")
                top = init_label[key]  # the slot's largest key
                _check_key(2**top.lam - 1 if isinstance(top, KeyInit) else top, oracle.lam)
        elif isinstance(step, ClassicalQuery):
            if not isinstance(oracle, ClassicalPROracle):
                raise ValueError(f"oracle {step.oracle_id!r} is not a classical recorder")
            if not 0 <= step.w < len(oracle.rel_slot):
                raise ValueError(f"classical input {step.w} has no relation slot: rel_slot names {len(oracle.rel_slot)}")
            q += oracle.n
        elif not isinstance(step, Interleave):
            raise ValueError(f"unknown step {step!r}")
    for name, oracle in bindings.items() if slots else ():
        written = oracle.rel_slot if isinstance(oracle, ClassicalPROracle) else ()
        if isinstance(oracle, OracleDescriptor):
            written = oracle.record_slots() + tuple(oracle.shared_slots or ())
        if key in {s % len(init_label) for s in written}:
            raise ValueError(f"oracle {name!r} records into or avoids key slot {key}, which does not hold a relation")
    return key


def key_sliced_view(program: AdversaryProgram, bindings: dict, init_label, keep=None, mask=None, each=None):
    """(view, good mass) of run_pr(program, bindings, init_label), one key at a time.

    The key is only read, by key Pauli layers and classical inputs, so the
    purified state of init_label is 2^(-lam/2) times the direct sum of the
    orthogonal slices run_pr gives with its KeyInit(lam) key slot holding k.
    The view, and the mass on the labels that pass the column test `mask`
    (see labels.label_mask), are 2^-lam times the sums over the slices; each
    slice is run, reduced, handed to each(k, slice) if given, and freed
    before the next runs. The mass is None without a mask. ValueError,
    before any slice runs, without a KeyInit key slot or where run_pr
    refuses a query (_check_queries).
    """
    if sum(isinstance(s, KeyInit) for s in init_label) != 1:
        raise ValueError("key slicing needs exactly one KeyInit slot")
    slot = _check_queries(program, bindings, init_label)
    acc, mass = None, 0.0
    for k in range(2 ** init_label[slot].lam):
        state = run_pr(program, bindings, init_label[:slot] + (k,) + init_label[slot + 1 :])
        view = reduce_view(state, keep)
        if acc is None:
            acc = view.entries
        else:
            acc += view.entries
        if mask is not None:
            mass += state.norm_sq(label_mask(state, mask))
        if each is not None:
            each(k, state)
        del state
    weight = 1.0 / (k + 1)  # 2^-lam, exactly: k + 1 = 2^lam slices
    acc *= weight
    return DensityMatrix(acc), mass * weight if mask is not None else None


VIEW_QUBIT_CAP = 12  # qubits kept by reduce_view: a 4096 x 4096 density
_RUN_ENTRIES = 1 << 12  # entries per reduce_view run; a run holds whole labels
_PAIR_CHUNK = 1 << 12  # (entry, entry) products per reduce_view batch


def reduce_view(purified: PurifiedState, keep=None) -> DensityMatrix:
    """Trace out the purification labels (and optionally register qubits).

    Entries are grouped by (label, traced-out register bits). Within a group
    every ordered pair of entries adds a * conj(b) to the kept-bit pair's
    density element. Groups are sorted in runs of whole labels and pairs are
    formed in bounded chunks, in the summation order of one pass over all groups.
    """
    n = purified.n_qubits
    keep = list(range(n)) if keep is None else _check_targets(keep, n)
    kq = len(keep)
    if kq > VIEW_QUBIT_CAP:
        raise ValueError(f"reduced view exceeds the {VIEW_QUBIT_CAP}-qubit density cap")
    dk = 2**kq
    labs, idxs = purified.label_ids, purified.indices
    mask = sum(1 << (n - 1 - q) for q in keep)
    acc = np.zeros(dk * dk, dtype=complex)
    # entries are sorted by label: a run ends where the label of its last entry does
    ends = np.searchsorted(labs, labs[_RUN_ENTRIES - 1 :: _RUN_ENTRIES], side="right").tolist()
    ends = list(dict.fromkeys(ends + [len(labs)]))  # a label longer than a run repeats an end
    for lo, hi in zip([0] + ends, ends):
        group = (labs[lo:hi] << n) | (idxs[lo:hi] & ~mask)
        order = np.argsort(group, kind="stable")
        kept = extract_bits(idxs[lo:hi][order], n, keep)
        amp = purified.amplitudes[lo:hi][order]
        starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        sizes = np.diff(np.append(starts, len(kept)))
        reach = np.cumsum(sizes**2)
        g0 = 0
        while g0 < len(starts):
            done = reach[g0 - 1] if g0 else 0
            g1 = max(int(np.searchsorted(reach, done + _PAIR_CHUNK, side="right")), g0 + 1)
            # every entry of groups g0..g1 pairs with each entry of its group
            size, a = sizes[g0:g1], starts[g0]
            w = np.repeat(size, size)
            rows = np.repeat(np.arange(a, a + len(w)), w)
            cols = np.repeat(starts[g0:g1], size)[rows - a] + np.arange(len(rows)) - np.repeat(np.cumsum(w) - w, w)
            np.add.at(acc, kept[rows] * dk + kept[cols], amp[rows] * amp[cols].conj())
            g0 = g1
    return DensityMatrix(acc.reshape(dk, dk))


# ---------------------------------------------------------------- Monte Carlo


_BATCHES = 20  # batch means per haar_view_mc run
_RESAMPLES = 200  # resamples per bootstrap stderr
_STACK_BYTES = 1 << 17  # the most bytes one array that a stack of trials holds may take


def trial_stacks(trials, master_seed, first=0):
    """(lo, rngs, held) of each byte-bounded stack of seeded trials, in trial
    order: trials lo, lo + 1, ... draw from rngs, trial t from
    trial_rng(master_seed, first + t). The loop body puts the arrays it made,
    each with a leading trial axis, in `held`. The first stack holds one
    trial; the largest per-trial array held sizes the later stacks to _STACK_BYTES."""
    hi, size = 0, 1
    while hi < trials:
        lo, hi = hi, min(trials, hi + size)
        held = []
        yield lo, [trial_rng(master_seed, first + t) for t in range(lo, hi)], held
        size = max(1, _STACK_BYTES // max(a[0].nbytes for a in held))


def haar_view_mc(program, sampler, trials, master_seed, keep=None):
    """Mean adversary view over seeded trials, plus per-batch means.

    sampler(rngs) returns the run_concrete bindings of a stack of trials,
    one per generator, as trial_stacks cuts them; trial t goes to batch
    t % batches, with min(_BATCHES, trials) batches.

    Only lower triangles are summed: the batch means come back as one
    (batches, d(d+1)/2) array of packed rows in _lower(d) order, and the
    mean as the Hermitian completion of its packed row. Both are read
    through eigvalsh, which reads only the lower triangle.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    batches = min(_BATCHES, trials)
    sums = None  # the (batches, d(d+1)/2) batch sums, allocated once the first stack gives d
    for lo, rngs, held in trial_stacks(trials, master_seed):
        bindings = sampler(rngs)
        states = run_concrete(program, bindings)
        views = _pure_views(states, keep)
        if sums is None:
            d = views.shape[-1]
            low = _lower(d)
            sums = np.zeros((batches, len(low)), dtype=views.dtype)
        # a program without queries leaves one view for the whole stack
        packed = np.broadcast_to(views.reshape(len(views), -1).take(low, axis=1), (len(rngs), len(low)))
        for t, row in enumerate(packed, lo):
            sums[t % batches] += row
        held += [states, views, *(b for b in bindings.values() if isinstance(b, np.ndarray))]
    total = sums.sum(axis=0) / trials
    # every batch holds a trial
    sums /= np.bincount(np.arange(trials) % batches)[:, None]
    rows, cols = np.divmod(low, d)
    mean = np.empty((d, d), dtype=sums.dtype)
    mean[cols, rows] = total.conj()  # the mirror first: the diagonal is then total's own
    mean[rows, cols] = total
    return DensityMatrix(mean), sums


def _lower(d):
    """Flat indices of the lower triangle, diagonal included, of a C-ordered
    d x d matrix, row by row: the np.tril_indices(d) order."""
    return np.flatnonzero(np.tri(d, dtype=bool))


def _packed(batch_means):
    """(rows, side d) of batch means: haar_view_mc's packed rows as they
    are, or the lower triangles of a list of d x d DensityMatrix."""
    if isinstance(batch_means, np.ndarray):
        return batch_means, (math.isqrt(8 * batch_means.shape[1] + 1) - 1) // 2
    d = len(batch_means[0].entries)
    low = _lower(d)
    return np.array([b.entries.take(low) for b in batch_means]), d


def _resample_mean(rows, idx, out):
    """rows[idx].mean(axis=0), bitwise, formed in `out`.

    Row idx[0] is copied and the other rows are added in resample order, as
    the stacked mean does, without stacking the rows or copying the resample.
    """
    np.copyto(out, rows[idx[0]])
    for i in idx[1:].tolist():
        out += rows[i]
    out /= len(idx)
    return out


def _bootstrap_td(families, reference, master_seed, stream):
    """Bootstrap stderr of the TD between the means of two batch-mean
    families, or of one family's mean and a reference array.

    Each resample draws from trial_rng(master_seed, stream), family by
    family, and fills the lower triangle of a reused matrix per family: all
    that _trace_distance's eigvalsh reads."""
    packed = [_packed(f) for f in families]
    d = packed[0][1]
    low = _lower(d)
    means = [np.empty_like(rows[0]) for rows, _ in packed]
    full = np.zeros((len(packed), d * d), dtype=packed[0][0].dtype)
    mats = full.reshape(-1, d, d)
    rng = trial_rng(master_seed, stream)
    vals = []
    for _ in range(_RESAMPLES):
        for (rows, _), mean, row in zip(packed, means, full):
            row[low] = _resample_mean(rows, rng.integers(0, len(rows), size=len(rows)), mean)
        vals.append(_trace_distance(mats[0], mats[1] if reference is None else reference))
    return float(np.std(vals))


def bootstrap_td_pair(batches_a, batches_b, master_seed):
    """Bootstrap stderr of TD(mean A, mean B) over two batch-mean families."""
    return _bootstrap_td([batches_a, batches_b], None, master_seed, 10**9 + 1)


def bootstrap_td_stderr(batch_means, reference: DensityMatrix, master_seed):
    """Bootstrap stderr of TD(mean view, reference) over batch means."""
    return _bootstrap_td([batch_means], reference.entries, master_seed, 10**9)


# ---------------------------------------------------------------- programs


def haar_interleave(n_qubits, rng, targets=None):
    """A Haar-random dense layer: haar_unitaries' draw from rng, whose one unitarity check is Interleave's."""
    k = len(targets) if targets is not None else n_qubits
    return Interleave(u=_haar_stack(2**k, [rng])[0], targets=targets)


def phased_permutation_interleave(n_qubits, rng, targets=None):
    """Random basis permutation with random phases; sparsity-preserving."""
    k = len(targets) if targets is not None else n_qubits
    perm = rng.permutation(2**k)
    phases = np.exp(2j * np.pi * rng.random(2**k))
    return Interleave(sparse_map=(perm, phases), targets=targets)

