"""The dict-of-dicts purified-state engine, kept as a differential reference.

This is the recording engine that `qhrolab.relstate` and `qhrolab.harness`
used before labels and entries moved to arrays. It is kept verbatim (only
the imports differ, and the unused global_phase_by_label is left out) so the
tests can check the array engine against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qhrolab.constructions import OracleDescriptor
from qhrolab.harness import (
    ClassicalPROracle,
    Interleave,
    KeyInit,
    QuantumQuery,
    ClassicalQuery,
    AdversaryProgram,
    ViewResult,
    _input_qubits,
)
from qhrolab.linalg import DensityMatrix
from qhrolab.relstate import ENTRY_CAP, CFParams, MSet, Rel, cf_set, is_collision_free


@dataclass
class PurifiedState:
    """Superposition over purification labels with sparse register vectors.

    terms maps a label tuple (slots holding Rel, MSet, int keys, or nested
    tuples of those) to {basis index: amplitude}. `n_qubits` is the size of
    the adversary register the basis indices live on.
    """

    n_qubits: int
    terms: dict = field(default_factory=dict)
    entry_cap: int = ENTRY_CAP

    @property
    def dim(self):
        return 2**self.n_qubits

    @classmethod
    def initial(cls, n_qubits, label, index=0, amp=1.0, entry_cap=ENTRY_CAP):
        return cls(n_qubits, {tuple(label): {index: complex(amp)}}, entry_cap)

    def entry_count(self):
        return sum(len(v) for v in self.terms.values())

    def norm_sq(self):
        return float(sum(abs(a) ** 2 for v in self.terms.values() for a in v.values()))

    def label_count(self):
        return len(self.terms)

    def check_cap(self):
        if self.entry_count() > self.entry_cap:
            raise MemoryError(f"purified state exceeds the {self.entry_cap}-entry cap")

    def prune(self, tol=0.0):
        """Drop zero (or sub-tolerance) amplitudes and empty labels."""
        out = {}
        for lab, vec in self.terms.items():
            nv = {i: a for i, a in vec.items() if abs(a) > tol}
            if nv:
                out[lab] = nv
        return PurifiedState(self.n_qubits, out, self.entry_cap)

    def dense_vector(self, label):
        v = np.zeros(self.dim, dtype=complex)
        for i, a in self.terms.get(tuple(label), {}).items():
            v[i] = a
        return v

    def apply_matrix(self, mat, targets=None):
        """Apply a unitary to the adversary register of every label."""
        from qhrolab._kernels import apply_gate

        n = self.n_qubits
        if targets is None:
            targets = list(range(n))
        targets = list(targets)
        out = {}
        for lab, vec in self.terms.items():
            dense = np.zeros(self.dim, dtype=complex)
            for i, a in vec.items():
                dense[i] = a
            dense = apply_gate(dense, mat, targets, n)
            nz = np.nonzero(np.abs(dense) > 1e-15)[0]
            out[lab] = {int(i): complex(dense[i]) for i in nz}
        st = PurifiedState(self.n_qubits, out, self.entry_cap)
        st.check_cap()
        return st

    def apply_sparse_map(self, fn, targets):
        """Apply a basis-permutation-with-phase map on `targets`.

        fn maps the register value on `targets` to (new value, phase);
        keeps sparse vectors sparse.
        """
        n = self.n_qubits
        shifts = [n - 1 - q for q in targets]
        out = {}
        for lab, vec in self.terms.items():
            nv = {}
            for i, a in vec.items():
                val = 0
                for b, s in enumerate(shifts):
                    val = (val << 1) | ((i >> s) & 1)
                nval, phase = fn(val)
                j = i
                for b, s in enumerate(shifts):
                    bit = (nval >> (len(shifts) - 1 - b)) & 1
                    j = (j & ~(1 << s)) | (bit << s)
                nv[j] = nv.get(j, 0) + a * phase
            out[lab] = nv
        return PurifiedState(self.n_qubits, out, self.entry_cap)

    def inner(self, other):
        if other.n_qubits != self.n_qubits:
            raise ValueError("register mismatch")
        acc = 0.0 + 0.0j
        for lab, vec in self.terms.items():
            ov = other.terms.get(lab)
            if not ov:
                continue
            for i, a in vec.items():
                b = ov.get(i)
                if b is not None:
                    acc += a.conjugate() * b
        return complex(acc)

    def max_diff(self, other):
        """Largest amplitude difference over the union of labels/entries."""
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        for lab in keys:
            va = self.terms.get(lab, {})
            vb = other.terms.get(lab, {})
            for i in set(va) | set(vb):
                worst = max(worst, abs(va.get(i, 0) - vb.get(i, 0)))
        return worst

    def to_json(self):
        """Debug serialization: labels as arrays, amplitudes as [re, im]."""

        def enc_label(x):
            if isinstance(x, Rel):
                return {"rel": [list(p) for p in x.pairs]}
            if isinstance(x, MSet):
                return {"mset": [list(e) if isinstance(e, tuple) else e for e in x.elements]}
            if isinstance(x, tuple):
                return {"tuple": [enc_label(e) for e in x]}
            return x

        items = []
        for lab in sorted(self.terms, key=repr):
            vec = self.terms[lab]
            items.append(
                {
                    "label": [enc_label(s) for s in lab],
                    "amplitudes": [[i, [a.real, a.imag]] for i, a in sorted(vec.items())],
                }
            )
        return json.dumps({"n_qubits": self.n_qubits, "terms": items}, sort_keys=True)



def _extract(idx, shifts):
    val = 0
    for s in shifts:
        val = (val << 1) | ((idx >> s) & 1)
    return val


def _deposit(idx, shifts, val):
    nb = len(shifts)
    for b, s in enumerate(shifts):
        bit = (val >> (nb - 1 - b)) & 1
        idx = (idx & ~(1 << s)) | (bit << s)
    return idx


def _record(state, slot, input_qubits, candidates_fn):
    """Shared engine for all recording maps.

    candidates_fn(label) returns the candidate output list for that label;
    the appended amplitude factor is 1/sqrt(len(candidates)).
    """
    n = state.n_qubits
    shifts = [n - 1 - q for q in input_qubits]
    out = {}
    count = 0
    for lab, vec in state.terms.items():
        cands = candidates_fn(lab)
        if not cands:
            raise ValueError("recording map undefined: no available outputs")
        norm = 1.0 / math.sqrt(len(cands))
        rel = lab[slot]
        for i, a in vec.items():
            x = _extract(i, shifts)
            scaled = a * norm
            for y in cands:
                nl = list(lab)
                nl[slot] = rel.add(x, y)
                nl = tuple(nl)
                j = _deposit(i, shifts, y)
                bucket = out.setdefault(nl, {})
                if j in bucket:
                    bucket[j] += scaled
                else:
                    bucket[j] = scaled
                    count += 1
                    if count > state.entry_cap:
                        raise MemoryError(f"purified state exceeds the {state.entry_cap}-entry cap")
    return PurifiedState(n, out, state.entry_cap)


def pr_apply(state, relation_slot, input_qubits, N, shared_slots=None):
    """One recording query: |x>|R> -> (N-|R|)^{-1/2} sum_{y not in Im} |y>|R+(x,y)>.

    `shared_slots` lists the label slots whose joint image the fresh output
    must avoid (defaults to the target slot alone). The input register spans
    log2(N) qubits of the adversary register.
    """
    nq = N.bit_length() - 1
    if 2**nq != N:
        raise ValueError("oracle dimension must be a power of two")
    if len(input_qubits) != nq:
        raise ValueError("input register must span log2(N) qubits")
    slots = list(shared_slots) if shared_slots is not None else [relation_slot]
    if relation_slot not in slots:
        slots.append(relation_slot)

    def candidates(lab):
        im = set()
        for s in slots:
            im |= set(lab[s].image)
        if len(lab[relation_slot]) >= N:
            raise ValueError("relation is full: the recording map is undefined at |R| = N")
        return [y for y in range(N) if y not in im]

    return _record(state, relation_slot, input_qubits, candidates)



def pcfpr_apply(state, target_slot, other_slots, input_qubits, params: CFParams):
    """Collision-free recording across two (or more) relation slots.

    |x>|R1>|R2> -> |CF(Im(R1 u R2))|^{-1/2} sum_{y in CF} |y>, with (x, y)
    appended to the target slot. Preconditions (each slot's image, the joint
    image, and disjointness) are checked on every populated label.
    """
    if isinstance(other_slots, int):
        other_slots = [other_slots]
    slots = [target_slot] + [s for s in other_slots if s != target_slot]
    cache = {}

    def candidates(lab):
        images = [tuple(sorted(lab[s].image)) for s in slots]
        joint = [y for im in images for y in im]
        key = tuple(sorted(joint))
        if len(set(joint)) != len(joint):
            raise ValueError("relation slots are not disjoint")
        if key not in cache:
            for im in images:
                if not is_collision_free(im, params):
                    raise ValueError("a relation image is not collision-free")
            if not is_collision_free(joint, params):
                raise ValueError("the joint image is not collision-free")
            cache[key] = sorted(cf_set(joint, params))
        return cache[key]

    return _record(state, target_slot, input_qubits, candidates)



def project_good(state, predicate):
    """Keep only the terms whose label satisfies the predicate (subnormalized)."""
    out = {lab: dict(vec) for lab, vec in state.terms.items() if predicate(lab)}
    return PurifiedState(state.n_qubits, out, state.entry_cap)


def label_rewrite(state, rewriter, check_injective=True):
    """Relabel every term; amplitude vectors untouched.

    With check_injective, raises if two populated labels collide, which would
    make the rewrite non-isometric.
    """
    out = {}
    for lab, vec in state.terms.items():
        nl = tuple(rewriter(lab))
        if nl in out:
            if check_injective:
                raise ValueError(f"label rewrite is not injective at {nl!r}")
            dst = out[nl]
            for i, a in vec.items():
                dst[i] = dst.get(i, 0) + a
        else:
            out[nl] = dict(vec)
    return PurifiedState(state.n_qubits, out, state.entry_cap)


def key_slot_hadamard(state, key_slot, lam):
    """Hadamard transform of an integer key slot (2^lam keys)."""
    groups = {}
    for lab, vec in state.terms.items():
        k = lab[key_slot]
        rest = lab[:key_slot] + lab[key_slot + 1 :]
        groups.setdefault(rest, {})[k] = vec
    norm = 2 ** (-lam / 2.0)
    out = {}
    for rest, by_key in groups.items():
        for h in range(2**lam):
            acc = {}
            for k, vec in by_key.items():
                sign = -1.0 if bin(h & k).count("1") % 2 else 1.0
                for i, a in vec.items():
                    acc[i] = acc.get(i, 0) + sign * norm * a
            acc = {i: a for i, a in acc.items() if abs(a) > 1e-14}
            if acc:
                nl = rest[:key_slot] + (h,) + rest[key_slot:]
                out[nl] = acc
    return PurifiedState(state.n_qubits, out, state.entry_cap)


def partition_by_key(state, source_slot, selector, check_injective=True):
    """Split a relation slot in two by a label-dependent pair predicate.

    selector(pair, label) decides membership of the selected part; the label
    gains a new slot (inserted right after source_slot) holding the selected
    sub-relation. Inverse: merge_partition.
    """

    def rw(lab):
        rel = lab[source_slot]
        sel = [p for p in rel if selector(p, lab)]
        rest = list(rel.pairs)
        for p in sel:
            rest.remove(p)
        return lab[:source_slot] + (Rel(rest), Rel(sel)) + lab[source_slot + 1 :]

    return label_rewrite(state, rw, check_injective)


def merge_partition(state, slot_a, slot_b, check_injective=True):
    """Union two relation slots back into one (inverse of partition_by_key)."""

    def rw(lab):
        merged = lab[slot_a].union(lab[slot_b])
        keep = [s for i, s in enumerate(lab) if i not in (slot_a, slot_b)]
        keep.insert(min(slot_a, slot_b), merged)
        return tuple(keep)

    return label_rewrite(state, rw, check_injective)


def apply_injection(state, slot, func, key_slot=None, check_injective=True):
    """Map each element of a relation/multiset slot through an injection.

    func(element) or func(element, k) when key_slot is given. Works for Rel
    (elements are pairs) and MSet slots.
    """

    def rw(lab):
        obj = lab[slot]
        args = (lab[key_slot],) if key_slot is not None else ()
        if isinstance(obj, Rel):
            new = Rel(func(p, *args) for p in obj)
        else:
            new = MSet(func(e, *args) for e in obj)
        return lab[:slot] + (new,) + lab[slot + 1 :]

    return label_rewrite(state, rw, check_injective)


def pair_multisets(state, slot_a, slot_b, key_slot, match, check_injective=True):
    """Zip two equal-size multiset slots into one multiset of joined tuples.

    match(ea, eb, k) tells whether eb is the partner of ea; the pairing must
    be a unique perfect matching on every populated label, else an error.
    """

    def rw(lab):
        a = list(lab[slot_a])
        b = list(lab[slot_b])
        k = lab[key_slot]
        if len(a) != len(b):
            raise ValueError("multisets must have equal size")
        joined = []
        for ea in a:
            partners = [eb for eb in b if match(ea, eb, k)]
            if len(partners) != 1:
                raise ValueError("pairing is not a unique perfect matching")
            b.remove(partners[0])
            ea_t = ea if isinstance(ea, tuple) else (ea,)
            eb_t = partners[0] if isinstance(partners[0], tuple) else (partners[0],)
            joined.append(ea_t + eb_t)
        lo, hi = sorted((slot_a, slot_b))
        keep = [s for i, s in enumerate(lab) if i not in (slot_a, slot_b)]
        keep.insert(lo, MSet(joined))
        return tuple(keep)

    return label_rewrite(state, rw, check_injective)


def _apply_interleave(state: PurifiedState, step: Interleave) -> PurifiedState:
    targets = list(step.targets) if step.targets is not None else list(range(state.n_qubits))
    if step.sparse_map is not None:
        return state.apply_sparse_map(step.sparse_map, targets)
    return state.apply_matrix(step.u.entries, targets)


def _key_pauli(state, kind, lam, key_slot, input_qubits, n_oracle):
    """Key-controlled X^k / Z^k on the lam-bit prefix of the oracle register."""
    n = state.n_qubits
    prefix_shifts = [n - 1 - q for q in input_qubits[:lam]]
    out = {}
    for lab, vec in state.terms.items():
        k = lab[key_slot]
        nv = {}
        for i, a in vec.items():
            if kind == "X":
                j = _deposit(i, prefix_shifts, _extract(i, prefix_shifts) ^ k)
                nv[j] = nv.get(j, 0) + a
            else:
                sign = -1.0 if bin(_extract(i, prefix_shifts) & k).count("1") % 2 else 1.0
                nv[i] = nv.get(i, 0) + sign * a
        out[lab] = nv
    return PurifiedState(n, out, state.entry_cap)


def _quantum_query_pr(state, desc: OracleDescriptor, input_qubits):
    for s in desc.steps:
        if s[0] == "pr":
            shared = desc.shared_slots if desc.shared_slots else None
            state = pr_apply(state, s[1], list(input_qubits), 2**desc.n, shared_slots=shared)
        elif s[0] == "cfpr":
            others = [x for x in (desc.shared_slots or (s[1],)) if x != s[1]]
            state = pcfpr_apply(state, s[1], others, list(input_qubits), s[2])
        elif s[0] == "pauli":
            if desc.key_slot is None:
                raise ValueError("key-controlled Pauli needs a key slot")
            state = _key_pauli(state, s[1], desc.lam, desc.key_slot, list(input_qubits), desc.n)
        else:
            raise ValueError(f"unknown descriptor step {s!r}")
    return state


def _classical_query_pr(state, oracle: ClassicalPROracle, w):
    """Append an answer register and record (input_of(k, w), y) per label."""
    n_old = state.n_qubits
    n = oracle.n
    N = 2**n
    out = {}
    count = 0
    for lab, vec in state.terms.items():
        k = lab[oracle.key_slot] if oracle.key_slot is not None else 0
        x = oracle.input_of(k, w)
        holder = lab[oracle.rel_slot]
        if oracle.avoid.startswith("per_w"):
            rel = holder[w]
        else:
            rel = holder
        avoid = set(rel.image)
        if oracle.avoid in ("global", "per_w_global"):
            if oracle.avoid == "per_w_global":
                for r in holder:
                    avoid |= set(r.image)
            for s in oracle.avoid_slots:
                avoid |= set(lab[s].image)
        cands = [y for y in range(N) if y not in avoid]
        if not cands:
            raise ValueError("classical recording undefined: no outputs left")
        norm = 1.0 / math.sqrt(len(cands))
        for y in cands:
            nl = list(lab)
            if oracle.avoid.startswith("per_w"):
                fam = list(holder)
                fam[w] = rel.add(x, y)
                nl[oracle.rel_slot] = tuple(fam)
            else:
                nl[oracle.rel_slot] = rel.add(x, y)
            if oracle.transcript_slot is not None:
                nl[oracle.transcript_slot] = nl[oracle.transcript_slot] + (w,)
            nl = tuple(nl)
            bucket = out.setdefault(nl, {})
            for i, a in vec.items():
                j = (i << n) | y
                bucket[j] = bucket.get(j, 0) + a * norm
                count += 1
                if count > state.entry_cap:
                    raise MemoryError(f"purified state exceeds the {state.entry_cap}-entry cap")
    return PurifiedState(n_old + n, out, state.entry_cap)


def run_pr(program: AdversaryProgram, bindings: dict, init_label) -> PurifiedState:
    """Exact purified execution.

    init_label is a tuple of initial slot values; KeyInit(lam) slots expand
    into the uniform key superposition.
    """
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
            state = _apply_interleave(state, step)
        elif isinstance(step, QuantumQuery):
            desc = bindings[step.oracle_id]
            if not isinstance(desc, OracleDescriptor):
                raise ValueError(f"oracle {step.oracle_id!r} is not a descriptor")
            state = _quantum_query_pr(state, desc, _input_qubits(program, step))
        elif isinstance(step, ClassicalQuery):
            oracle = bindings[step.oracle_id]
            if not isinstance(oracle, ClassicalPROracle):
                raise ValueError(f"oracle {step.oracle_id!r} is not a classical recorder")
            state = _classical_query_pr(state, oracle, step.w)
        else:
            raise ValueError(f"unknown step {step!r}")
    return state


def reduce_view(purified: PurifiedState, keep=None) -> ViewResult:
    """Trace out the purification labels (and optionally register qubits)."""
    n = purified.n_qubits
    if keep is None:
        keep = list(range(n))
    keep = list(keep)
    kq = len(keep)
    if kq > 12:
        raise ValueError("reduced view exceeds the 12-qubit density cap")
    keep_shifts = [n - 1 - q for q in keep]
    rho = np.zeros((2**kq, 2**kq), dtype=complex)
    mass = 0.0
    for vec in purified.terms.values():
        groups = {}
        for i, a in vec.items():
            kpart = _extract(i, keep_shifts)
            rest = i
            for s in keep_shifts:
                rest &= ~(1 << s)
            groups.setdefault(rest, []).append((kpart, a))
            mass += abs(a) ** 2
        for ents in groups.values():
            for ia, aa in ents:
                for ib, ab in ents:
                    rho[ia, ib] += aa * ab.conjugate()
    diag = {
        "label_count": purified.label_count(),
        "entry_count": purified.entry_count(),
        "mass": mass,
        "norm_deficit": 1.0 - mass,
    }
    return ViewResult(DensityMatrix(rho, kq), diag)


