"""Experiments on the keyed unitary constructions, whose exact hybrids run
one key slice at a time: exp_pru2, exp_pru1 (with its break mode) and
exp_split_augment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attacks, linalg
from .constructions import concrete_oracle, haar_slot, pru_one_query, pru_two_query
from .harness import (
    VIEW_QUBIT_CAP,
    AdversaryProgram,
    KeyInit,
    QuantumQuery,
    haar_interleave,
    key_sliced_view,
    phased_permutation_interleave,
    reduce_view,
    run_pr,
    trial_stacks,
)
from .labels import Rel, corx_count, key_column, label_mask, pair_columns
from .linalg import VEC_QUBIT_CAP, DensityMatrix, choi_state, haar_unitaries, pauli_string, trace_distance, trial_rng
from .relstate import CFParams, PurifiedState, label_rewrite, project_good
from .skeleton import SLACK, Params, _check, _check_ge, _mc_check, _param, _scaling_checks, _within

__all__ = ["exp_pru2", "exp_pru1", "exp_split_augment"]


def _keyed_samplers(desc):
    """(real, ideal) Monte Carlo bindings of the keyed games: the real G is
    the construction `desc` at a Haar U and a uniform key, beside U itself;
    the ideal G and U are independent Haar unitaries."""
    N = 2**desc.n

    def real(rngs):
        u = haar_unitaries(N, rngs)
        k = [rng.integers(0, 2**desc.lam) for rng in rngs]
        return {"G": concrete_oracle(desc, u, k), "U": u}

    def ideal(rngs):
        return {"G": haar_unitaries(N, rngs), "U": haar_unitaries(N, rngs)}

    return real, ideal


# ----------------------------------------------------------------- exp_pru2


def _hybrid_bindings(n, desc_g, cf=None):
    """Hybrid 2 (keyed G recording in U's relation, init label (Rel(), key))
    and hybrid 3 (G and U in two relations whose outputs avoid each other,
    init label (Rel(), Rel()))."""
    apart = {
        "G": haar_slot(n, slot=0, cf=cf, shared_slots=(0, 1)),
        "U": haar_slot(n, slot=1, cf=cf, shared_slots=(0, 1)),
    }
    return {"G": desc_g, "U": haar_slot(n, slot=0, cf=cf)}, apart


def _pru2_program(n, rng):
    """One keyed query then one direct query, mixed interleaves."""
    return AdversaryProgram(
        n=n,
        steps=(
            haar_interleave(n, rng),
            QuantumQuery("G"),
            phased_permutation_interleave(n, rng),
            QuantumQuery("U"),
        ),
    )


@dataclass(frozen=True)
class Pru2Params(Params):
    n_list: tuple[int, ...] = _param((3, 4), lo=2)
    lam: int | None = _param(None, lo=1, rule="n at each grid point")
    t: int = _param(2, lo=0)
    ell: int = _param(1, lo=0)
    trials: int = _param(20000, lo=1)

    def _derive(self):
        if self.lam is not None and self.lam > min(self.n_list):
            raise ValueError("need lam <= n at every grid point")
        _within(max(self.n_list), VIEW_QUBIT_CAP, "the full-register view")


def exp_pru2(p: Pru2Params, rep):
    seed, t, ell, trials, n_list = p.seed, p.t, p.ell, p.trials, p.n_list
    rep.notes.append("two-query keyed construction; proof-internal identities exact, end-to-end MC")
    rep.notes.append(f"ASYMPTOTIC checks use the constant-slack policy C={SLACK}")
    ends = []
    for i, n in enumerate(n_list):
        N = 2**n
        lam = n if p.lam is None else p.lam
        prog = _pru2_program(n, trial_rng(seed, 20_000 + n))
        entry = rep.add_point({"n": n, "lam": lam, "t": t, "ell": ell})

        # exact hybrid identities at the smallest grid point
        desc_g = pru_two_query(n, lam)
        keyed, apart = _hybrid_bindings(n, desc_g)
        rho2, mass = key_sliced_view(
            prog, keyed, (Rel(), KeyInit(lam)), mask=lambda labels: corx_count(labels, 0, 1) == ell
        )
        rho3 = reduce_view(run_pr(prog, apart, (Rel(), Rel())))
        _check_ge(entry, "good_key_mass", "EXACT", mass, 1.0 - (t * t + t * ell) / N)
        td23 = trace_distance(rho2, rho3)
        bound23 = 2.0 * math.sqrt((t * t + t * ell) / N)
        _check(entry, "td_hybrid2_vs_hybrid3", "EXACT", td23, bound23)

        # Monte Carlo against the exact hybrids
        real, ideal = _keyed_samplers(desc_g)
        b1 = 4.0 * (t + ell) * (t + ell - 1) / (N + 1)
        b3 = (t + ell) ** 2 / math.sqrt(N)
        _mc_check(entry, "td_real_vs_hybrid2", "MC", b1, prog, trials, (real, seed + 31 * i), rho2, seed + 41 * i)
        ideal_side = (ideal, seed + 31 * i + 1)
        _mc_check(entry, "td_ideal_vs_hybrid3", "ASYMPTOTIC", SLACK * b3, prog, trials, ideal_side, rho3, seed + 43 * i)

        # end-to-end on a three-query adversary (two keyed calls, one direct)
        # measured on a fixed two-qubit output register, where the signal
        # clears the Monte Carlo floor at the default trial count
        prog_end = AdversaryProgram(n=n, steps=(QuantumQuery("G"), QuantumQuery("U"), QuantumQuery("G")))
        q = t + ell + 2
        end_bound = 4.0 * q * (q - 1) / (N + 1) + 2.0 * math.sqrt(q * q / N) + SLACK * q * q / math.sqrt(N)
        td_end, se_end = _mc_check(
            entry, "td_end_to_end", "ASYMPTOTIC", end_bound, prog_end, trials,
            (real, seed + 51 * i), (ideal, seed + 53 * i), seed + 47 * i, keep=[0, 1],
        )
        ends.append((n, td_end, se_end))
    _scaling_checks(rep, ends, "end_to_end_scaling")


# ----------------------------------------------------------------- exp_pru1


def _pru1_program(n, t, ell, rng):
    """ell keyed queries first, then t-ell direct queries."""
    steps = [haar_interleave(n, rng)]
    for _ in range(ell):
        steps.append(QuantumQuery("G"))
        steps.append(phased_permutation_interleave(n, rng))
    for _ in range(t - ell):
        steps.append(QuantumQuery("U"))
        steps.append(phased_permutation_interleave(n, rng))
    return AdversaryProgram(n=n, steps=tuple(steps))


def _hybrid3_slices(psi3, n, lam):
    """k -> the key-k slice of hybrid 2 that hybrid 3 `psi3` predicts.

    Hybrid 2 is 2^(-lam/2) sum_k |k> slice_k. The key-Hadamard isometry sends
    it to phi(R, h) = 2^-lam sum_k (-1)^{h.k} slice_k(R) and then splits R
    into the ell pairs of G, whose lam-bit output prefixes XOR to h, and the
    rest, which gives psi3. Run backwards: label (Rel_G, Rel_U) of psi3 goes to
    (R, h), R the pairs of both in one relation and h the XOR of Rel_G's
    output prefixes (ValueError if two labels meet), and inverting the
    Hadamard gives slice_k(R) = sum_h (-1)^{h.k} phi(R, h), with no scale
    factor; entries of one (R, index) are summed.
    """
    rel_g, rel_u = pair_columns(psi3, 0), pair_columns(psi3, 1)
    y, on = rel_g[1:]
    h = np.bitwise_xor.reduce(np.where(on, y >> (n - lam), 0), axis=1)
    joined = tuple(map(np.hstack, zip(rel_g, rel_u)))
    del rel_g, rel_u, y, on  # only the joined columns and h live through the rewrite
    phi = label_rewrite(psi3, [joined, h])
    del joined
    rel, h = pair_columns(phi, 0), key_column(phi, 1)[phi.label_ids]  # h per entry

    def expected(k):
        sign = np.where(linalg.key_pauli_action("Z", k, np.arange(2**lam))[1], -1, 1)
        slots = [rel, np.full(phi.label_count(), k)]
        return PurifiedState.from_columns(n, slots, phi.label_ids, phi.indices, phi.amplitudes * sign[h])

    return expected


@dataclass(frozen=True)
class Pru1Params(Params):
    mode: str = _param("secure", choices=("secure", "break"))
    n: int = _param(3, lo=1)
    lam: int | None = _param(None, lo=1, rule="n")
    ell: int = _param(1, lo=0)
    t: int = _param(3, lo=0)
    trials: int = _param(4000, lo=1)
    copies_per_key: int | None = _param(None, lo=1, rule="4*lam")

    def _derive(self):
        if self.lam is None:
            object.__setattr__(self, "lam", self.n)
        if self.copies_per_key is None:
            object.__setattr__(self, "copies_per_key", 4 * self.lam)
        if self.lam > self.n:
            raise ValueError("need lam <= n")
        if self.ell > self.t:
            raise ValueError("need ell <= t: ell of the t queries are keyed")
        if self.mode == "break":
            _within(2 * self.n, VEC_QUBIT_CAP, "a Choi state")
        else:
            _within(self.n, VIEW_QUBIT_CAP, "the full-register view")
        if self.mode == "secure":
            stuck = _CF_STUCK.get(max(self.ell, 1))
            if stuck is None:
                raise ValueError("secure mode needs ell <= 3: query limits are tabulated for folds up to 3")
            most = stuck[self.lam - 1] if self.lam <= len(stuck) else 7
            if self.t > most:
                raise ValueError(f"secure mode at lam = {self.lam}, ell = {self.ell} answers at most t = {most} queries")


# Secure mode records collision-free outputs of fold max(ell, 1) and prefix
# length lam, so each query needs a free output: t is at most the size of
# the smallest collision-free prefix set in {0,1}^lam that no prefix
# extends. By fold, that size at lam = 1, 2, ... (2^lam at fold 1;
# exhaustive search at folds 2 and 3); past the listed lam the search
# establishes only that it is 7 or more (the prefixes a set forbids lie in
# its affine hull), so t is at most 7 there.
_CF_STUCK = {1: (2, 4), 2: (2, 3, 4, 6), 3: (2, 3, 4, 5, 6)}


def exp_pru1(p: Pru1Params, rep):
    """Secure mode; break mode (`mode` = "break") reads n, lam, trials and copies_per_key."""
    if p.mode == "break":
        return _pru1_break(p, rep)
    seed, n, lam, ell, t, trials = p.seed, p.n, p.lam, p.ell, p.t, p.trials
    N = 2**n
    cf = CFParams(max(ell, 1), lam, n)
    rep.notes.append("one-query keyed construction; hybrid equality is exact via the key-Hadamard isometry")
    prog = _pru1_program(n, t, ell, trial_rng(seed, 30_000 + n))
    entry = rep.add_point({"n": n, "lam": lam, "t": t, "ell": ell})

    if ell > 0:
        keyed, apart = _hybrid_bindings(n, pru_one_query(n, lam, cf=cf), cf)
        psi3 = run_pr(prog, apart, (Rel(), Rel()))
        # hybrid 2 runs one key at a time: each slice is reduced and compared
        # with the slice hybrid 3 predicts before it is freed
        expected, gaps = _hybrid3_slices(psi3, n, lam), []
        rho2, _ = key_sliced_view(
            prog, keyed, (Rel(), KeyInit(lam)), each=lambda k, state: gaps.append(state.max_diff(expected(k)))
        )
        del expected  # and phi, before the Monte Carlo check
    else:
        # G is unkeyed and never queried, so every key slice is the same run
        keyed, apart = _hybrid_bindings(n, haar_slot(n, slot=0, cf=cf), cf)
        rho2 = reduce_view(run_pr(prog, keyed, (Rel(), 0)))
        psi3 = run_pr(prog, apart, (Rel(), Rel()))
    rho3 = reduce_view(psi3)
    _check(entry, "td_hybrid2_vs_hybrid3", "EXACT", trace_distance(rho2, rho3), 1e-8)
    if ell > 0:
        _check(entry, "isometry_state_match", "EXACT", max(gaps), 1e-8)

    # end-to-end Monte Carlo against independent oracles
    real, ideal = _keyed_samplers(pru_one_query(n, lam))
    per_side = math.sqrt(max(ell, 1)) * t ** (ell + 1) / 2 ** (lam / 2.0) + 4.0 * t * (t - 1) / (N + 1)
    bound = 2.0 * SLACK * per_side
    _mc_check(entry, "td_end_to_end", "ASYMPTOTIC", bound, prog, trials, (real, seed + 5), (ideal, seed + 6), seed + 7)


def _pru1_break(p: Pru1Params, rep):
    seed, n, lam, trials, copies_per_key = p.seed, p.n, p.lam, p.trials, p.copies_per_key
    rep.notes.append("key search by per-key SWAP-test batteries on prepared Choi states")
    rep.notes.append(
        "the two-query arm uses the best single-call preparation (pre X^k); the construction is not of that form"
    )
    ident = np.eye(2**n)
    z_k, x_k = (np.array([pauli_string(kind, k, lam, n) for k in range(2**lam)]) for kind in "ZX")
    wins = np.zeros((2, 2))  # successes per (arm, real / null oracle)
    for _, rngs, held in trial_stacks(trials, seed):
        u = haar_unitaries(2**n, rngs)
        v = haar_unitaries(2**n, rngs)
        kstar = np.array([rng.integers(0, 2**lam) for rng in rngs])
        phi_u = choi_state(u)
        # candidates by (arm, key, trial, amplitude): the one-query arm
        # prepares Z^k U, the two-query arm U X^k, for every key k
        cands = np.array(
            [
                [attacks.choi_from_copies(ident, z, [phi_u]) for z in z_k],
                [attacks.choi_from_copies(x, ident, [phi_u]) for x in x_k],
            ]
        )
        o_null = choi_state(v)
        for arm, oracle in enumerate((choi_state(z_k[kstar] @ u), choi_state(u @ x_k[kstar] @ u))):
            for which, o in enumerate((oracle, o_null)):
                _, won = attacks.swap_or_attack(o, cands[arm], copies_per_key, rngs)
                wins[arm, which] += won.sum()
        held.append(cands.transpose(2, 0, 1, 3))
    # both arms saw o_null once per trial
    adv_one, adv_two = (wins[:, 0] - wins[:, 1]) / trials
    entry = rep.add_point({"n": n, "lam": lam, "copies_per_key": copies_per_key})
    _check_ge(entry, "advantage_one_query_arm", "MC", adv_one, 0.9)
    _check(entry, "advantage_two_query_arm", "MC", adv_two, 0.2)


# --------------------------------------------------------- exp_split_augment


@dataclass(frozen=True)
class SplitAugmentParams(Params):
    n: int = _param(3, lo=2)  # at N = 2 no key has exactly one chained pair
    t: int = _param(1, lo=0)
    ell: int | None = _param(None, lo=0, rule="min(t, 1)")

    def _derive(self):
        if self.ell is None:
            object.__setattr__(self, "ell", min(self.t, 1))
        if self.t != 0 and not self.t == self.ell == 1:
            raise ValueError("the desk-scale chain is implemented for t = ell = 1")
        _within(self.n, VIEW_QUBIT_CAP, "the full-register view")


def exp_split_augment(p: SplitAugmentParams, rep):
    seed, n, t, ell = p.seed, p.n, p.t, p.ell
    N = 2**n
    lam = n
    rep.notes.append("label-isometry chain: split the keyed recording, augment the plain one")
    entry = rep.add_point({"n": n, "t": t, "ell": ell})
    floor = math.sqrt(1.0 - (t * t + t * ell) / N)
    if t == 0:
        _check_ge(entry, "fidelity", "EXACT", 1.0, floor)
        rep.notes.append("t=0: both sides are the empty-query state; fidelity 1 by construction")
        return

    rng = trial_rng(seed, 50_000 + n)
    prog = AdversaryProgram(n=n, steps=(haar_interleave(n, rng), QuantumQuery("G")))
    psi3 = run_pr(prog, {"G": haar_slot(n, slot=0)}, (Rel(),))
    rho3 = reduce_view(psi3)
    augmented = _augmented_part(psi3, N, lam, t)

    # the keyed side runs one key at a time, since its surgery reads the key
    # and never writes it; a slice weighs 2^(-lam/2) in psi2, and the
    # augmented parts are at the whole state's scale
    views, overlap = {}, 0.0

    def each(k, state):
        nonlocal overlap
        good = project_good(state, label_mask(state, lambda labels: corx_count(labels, 0, 1) == ell))
        psi2p, psi3p = _split_surgery(good), augmented(k)
        overlap += psi2p.inner(psi3p)
        for name, st in (("good", good), ("psi2p", psi2p), ("psi3p", psi3p)):
            views[name] = views.get(name, 0) + reduce_view(st).entries

    rho2, _ = key_sliced_view(prog, {"G": pru_two_query(n, lam)}, (Rel(), KeyInit(lam)), each=each)
    v_good, v_psi2p = (DensityMatrix(views[name] * 2.0**-lam) for name in ("good", "psi2p"))
    v_psi3p = DensityMatrix(views["psi3p"])

    fid = 2.0 ** (-lam / 2.0) * abs(overlap)
    _check_ge(entry, "fidelity", "EXACT", fid, floor - 1e-9)
    _check(entry, "reduced_view_invariance_split", "EXACT", trace_distance(v_psi2p, v_good), 1e-8)
    _check(entry, "reduced_view_invariance_augment", "EXACT", trace_distance(v_psi3p, rho3), 1e-8)
    entry["point"]["td_sides"] = float(trace_distance(rho2, rho3))


def _split_surgery(good):
    """The label chain of one key slice: (Rel{p, q}, k) -> (Rel{(x, y)}, z, k).

    p = (x, z) and q = (z^k, y) are the pairs with p.y ^ q.x == k, found by
    column tests. ValueError unless every label holds exactly two pairs, no
    pair matches itself, and exactly one ordered pair of positions matches.
    """
    x, y, on = pair_columns(good, 0)
    k = key_column(good, 1)
    if np.any(on.sum(axis=1) != 2):
        raise ValueError("a label does not hold exactly two pairs")
    # the two pairs of a label are its first two positions (padding sorts last)
    x, y = x[:, :2], y[:, :2]
    if np.any((y ^ x) == k[:, None]):
        raise ValueError("a pair matches itself")
    first = (y[:, 0] ^ x[:, 1]) == k  # p at position 0 and q at 1
    if np.any(first == ((y[:, 1] ^ x[:, 0]) == k)):
        raise ValueError("not exactly one ordered pair of positions matches")
    x_p, z = np.where(first, x[:, 0], x[:, 1]), np.where(first, y[:, 0], y[:, 1])
    y_q = np.where(first, y[:, 1], y[:, 0])
    return label_rewrite(good, [(x_p[:, None], y_q[:, None], True), z, k])


def _augmented_part(psi3, N, lam, t):
    """k -> the key-k part of the augmented plain recording.

    Label (Rel{(x, y)},) of psi3 and a fresh z go to (Rel{(x, y)}, z, k) for
    every key k with len(corx({(x, z), (z^k, y)}, k)) == 1, that is for z != y
    and k not in {x^z, x^y}: 2^lam - 2 keys, with amplitude
    1/sqrt((N - t) * (2^lam - 2)) times psi3's.
    """
    x, y, _ = pair_columns(psi3, 0)
    z = np.arange(N)

    def part(k):
        fresh = (z != y) & (z != x ^ k) & (x ^ y != k)
        # every entry once per fresh z of its label
        e, zs = np.nonzero(fresh[psi3.label_ids])
        lab = psi3.label_ids[e]
        slots = [(x[lab], y[lab], True), zs, np.full(len(e), k)]
        amp = psi3.amplitudes[e] / math.sqrt((N - t) * (2**lam - 2))
        return PurifiedState.from_columns(psi3.n_qubits, slots, np.arange(len(e)), psi3.indices[e], amp)

    return part
