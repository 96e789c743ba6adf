"""Experiments on bounds that need no key slicing: the recording oracle
(exp_mh_bound), the state generators (exp_prs / exp_prfs), collision-free
sets (exp_cf_bound) and gluing (exp_spru)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import constructions
from .constructions import haar_slot, prfs_input, prfs_output, spru, spru_concrete
from .harness import (
    VIEW_QUBIT_CAP,
    AdversaryProgram,
    ClassicalPROracle,
    ClassicalQuery,
    KeyInit,
    QuantumQuery,
    key_sliced_view,
    reduce_view,
    run_pr,
    trial_stacks,
)
from .labels import Rel, key_column, pair_columns
from .linalg import QUBIT_CAP, VEC_QUBIT_CAP, haar_unitaries, trace_distance, trial_rng
from .relstate import CFParams, cf_count, cf_set
from .skeleton import SLACK, Params, _above_pow2, _check, _check_ge, _mc_check, _param, _scaling_checks, _within

__all__ = ["exp_mh_bound", "exp_cf_bound", "exp_spru"]


# --------------------------------------------------------------- exp_mh_bound


def _generic_program(n, t):
    """t repeated queries starting from a basis state.

    Querying without basis rotation keeps the distinct-output signal of the
    recording oracle well above the Monte Carlo floor at 2e4 trials.
    """
    return AdversaryProgram(n=n, steps=(QuantumQuery("U"),) * t)


@dataclass(frozen=True)
class MhBoundParams(Params):
    n_list: tuple[int, ...] = _param((2, 3, 4), lo=1)
    t: int = _param(2, lo=0)
    trials: int = _param(20000, lo=1)

    def _derive(self):
        if _above_pow2(self.t, min(self.n_list)):
            raise ValueError("need t <= 2^n at every grid point: a relation holds at most 2^n pairs")
        _within(max(self.n_list), QUBIT_CAP, "a sampled Haar unitary")


def exp_mh_bound(p: MhBoundParams, rep):
    seed, t, trials, n_list = p.seed, p.t, p.trials, p.n_list
    rep.notes.append("recording-oracle view vs Haar Monte Carlo; bound 2t(t-1)/(N+1)")
    results = []
    for i, n in enumerate(n_list):
        prog = _generic_program(n, t)
        # the adversary outputs a fixed two-qubit register; the smaller view
        # keeps the estimator floor below the 1/N signal at every n
        keep = list(range(min(n, 2)))
        pr_view = reduce_view(run_pr(prog, {"U": haar_slot(n)}, (Rel(),)), keep)

        def sampler(rngs, n=n):
            return {"U": haar_unitaries(2**n, rngs)}

        entry = rep.add_point({"n": n, "N": 2**n})
        bound = 2.0 * t * (t - 1) / (2**n + 1)
        side = (sampler, seed + i)
        td, se = _mc_check(entry, "td_haar_vs_recording", "MC", bound, prog, trials, side, pr_view, seed + i, keep)
        results.append((n, td, se))
    _scaling_checks(rep, results, "td_ratio_scaling")


# ------------------------------------------------------- exp_prs / exp_prfs
#
# The multi-copy state generator (PRS) and the function-state generator with
# classical queries (PRFS) are one game with two input maps. The adversary
# sends t classical inputs w to a keyed oracle that answers U|k || w || 0>,
# then makes s direct queries to U; the ideal oracle answers an independent
# Haar state per w. PRS is the game without function bits (m = 0, w = 0).


@dataclass(frozen=True)
class _OracleParams(Params):
    """The game's schema. A subclass adds its own field and the parts in which exp_prs and exp_prfs differ:
      oracle, m   the keyed classical oracle's binding name; its function-input bits (query i asks i mod 2^m);
      s           direct queries to U after the t classical ones;
      matches     (x, k, shift) -> whether input x of a recorded pair is good at key k;
      bound       (n, lam) -> hybrid distance bound before the slack;
      note, mc_offset   the report's first note; the Monte Carlo seed, less the run's seed.
    """

    n: int = _param(4, lo=1)
    lam: int = _param(2, lo=1)
    t: int = _param(2, lo=0)
    trials: int = _param(2000, lo=1)
    scaling: bool = _param(True)

    def _derive(self):
        # at t = 0 or s = 0 both hybrids give one view, so its TD cannot decrease
        if self.scaling and min(self.t, self.s) < 1:
            raise ValueError("scaling needs t >= 1 and s >= 1 (s = t in exp_prfs): else every TD is 0")
        # the scaling points add one key bit at the same n
        if self.n < self.lam + self.m + self.scaling:
            raise ValueError("need n >= lam + m_in, plus one when scaling")
        # the real oracle records the t classical and s direct queries in one relation
        if _above_pow2(self.t + self.s, self.n):
            raise ValueError("need t + s <= 2^n (2t <= 2^n in exp_prfs): a relation holds at most 2^n pairs")
        # the exact views keep the first 2n qubits (n + t*n with fewer), also
        # at the scaling point n + 1; the Monte Carlo register at n holds the
        # t classical answers
        top = self.n + self.scaling
        _within(min(2 * top, top + self.t * top), VIEW_QUBIT_CAP, "the reduced view")
        _within(self.n * (1 + self.t), VEC_QUBIT_CAP, "the concrete register")

    def good(self, n, lam):
        """The column test passed by the labels where t recorded pairs of
        slot 0 have an x that matches the key k of slot 1."""

        def test(labels):
            x, _, on = pair_columns(labels, 0)
            return np.count_nonzero(on & self.matches(x, key_column(labels, 1)[:, None], n - lam), axis=1) == self.t

        return test


@dataclass(frozen=True)
class PrsParams(_OracleParams):
    s: int = _param(2, lo=0)

    oracle, m, mc_offset = "copy", 0, 3
    note = "t keyed copies plus s oracle queries vs independent Haar-state copies"

    @staticmethod
    def matches(x, k, shift):
        return x == k << shift

    def bound(self, n, lam):
        return math.sqrt(self.s / 2**lam) + (self.t + self.s) ** 2 / 2 ** (n / 2.0)


@dataclass(frozen=True)
class PrfsParams(_OracleParams):
    m_in: int = _param(1, lo=0)

    oracle, mc_offset = "O", 4
    note = "classical-query function-state oracle vs per-input independent Haar states"
    m = property(lambda self: self.m_in)
    s = property(lambda self: self.t)

    @staticmethod
    def matches(x, k, shift):
        return x >> shift == k

    def bound(self, n, lam):
        t = self.t
        return t * t / 2 ** (n - self.m) + t * t / 2 ** (n / 2.0) + math.sqrt(t / 2**lam)


def _oracle_program(p, n):
    steps = [ClassicalQuery(p.oracle, i % 2**p.m) for i in range(p.t)]
    steps += [QuantumQuery("U", tuple(range(n))) for _ in range(p.s)]
    return AdversaryProgram(n=n, steps=tuple(steps))


def _oracle_views(p, n, lam, want_mass):
    """Exact purified views: shared-slot keyed oracle vs one slot per w.

    The real side only reads its key, so it runs one key at a time
    (key_sliced_view). The ideal side has no key: its input depends on w
    alone (the key reads as 0), so a uniform key register would only tensor
    the state 2^lam times over without changing the view. Each purified
    state is freed right after its reduction.
    """
    m = p.m
    prog = _oracle_program(p, n)
    keep = list(range(min(2 * n, n + p.t * n)))

    def input_of(k, w):
        return prfs_input(k, w, n, lam, m)

    real_bind = {
        p.oracle: ClassicalPROracle(n=n, rel_slot=(0,) * 2**m, input_of=input_of),
        "U": haar_slot(n, slot=0),
    }
    mask = p.good(n, lam) if want_mass else None
    v_real, mass = key_sliced_view(prog, real_bind, (Rel(), KeyInit(lam)), keep, mask)

    ideal_bind = {
        p.oracle: ClassicalPROracle(n=n, rel_slot=tuple(range(2**m)), input_of=input_of),
        "U": haar_slot(n, slot=2**m),
    }
    ideal = run_pr(prog, ideal_bind, (Rel(),) * 2**m + (Rel(),))
    v_ideal = reduce_view(ideal, keep)
    del ideal
    return prog, v_real, v_ideal, mass, keep


def _oracle_game(p: _OracleParams, rep):
    """exp_prs and exp_prfs: the exact hybrid distance at (n, lam) and at its
    scaling points, plus an MC cross-check. A grid point holds the game's
    fields but trials and scaling."""
    rep.notes.append(p.note)
    rep.notes.append("primary TD is exact between the two purified hybrid oracles, on the first 2n qubits")
    n, lam = p.n, p.lam
    fields = {k: v for k, v in p.recorded().items() if k not in ("trials", "scaling")}
    points = [(n, lam), (n, lam + 1), (n + 1, lam)] if p.scaling else [(n, lam)]
    tds = {}
    for (nn, ll) in points:
        base = (nn, ll) == (n, lam)
        prog, v_real, v_ideal, mass, keep = _oracle_views(p, nn, ll, want_mass=base)
        td = trace_distance(v_real, v_ideal)
        tds[(nn, ll)] = td
        entry = rep.add_point({**fields, "n": nn, "lam": ll})
        _check(entry, "td_hybrid_real_vs_ideal", "ASYMPTOTIC", td, SLACK * p.bound(nn, ll))
        if base:
            _check_ge(entry, "good_pair_mass", "EXACT", mass, 1.0 - p.s / 2**ll)

            # Monte Carlo cross-check against concrete sampling
            def real(rngs, nn=nn, ll=ll):
                u = haar_unitaries(2**nn, rngs)
                k = [rng.integers(0, 2**ll) for rng in rngs]
                return {p.oracle: lambda w: prfs_output(u, k, w, nn, ll, p.m), "U": u}

            q, mc_seed = p.t + p.s, p.seed + p.mc_offset
            bound = 2.0 * q * (q - 1) / (2**nn + 1)
            _mc_check(entry, "mc_real_vs_purified", "MC", bound, prog, p.trials, (real, mc_seed), v_real, mc_seed, keep)
    if p.scaling:
        entry = rep.add_point({"scaling": "lam,n"})
        for grown, at in (("lam", (n, lam + 1)), ("n", (n + 1, lam))):
            td, base_td = tds[at], tds[(n, lam)]
            _check(entry, f"td_strictly_decreasing_in_{grown}", "EXACT", td, base_td, passed=td < base_td)


# -------------------------------------------------------------- exp_cf_bound


@dataclass(frozen=True)
class CfBoundParams(Params):
    n_max: int = _param(8, lo=1)
    ell_max: int = _param(2, lo=1)
    smax: int = _param(4, lo=0)
    samples: int = _param(300, lo=0)
    exhaustive_cap: int = _param(60000, lo=0)

    def _derive(self):
        if self.n_max > 62:
            raise ValueError("need n_max <= 62: sampled sets are drawn as 64-bit ints")


def exp_cf_bound(p: CfBoundParams, rep):
    seed, n_max, ell_max, smax = p.seed, p.n_max, p.ell_max, p.smax
    sample_count, exhaustive_cap = p.samples, p.exhaustive_cap
    rep.notes.append("set-size lower bound 2^n - l*|S|^{2l}*2^{n-lam}; zero violations required")
    rep.notes.append(
        "cells beyond the exhaustive cap are covered by the vacuity argument plus seeded sampling"
    )
    rng = trial_rng(seed, 777)
    violations = 0
    checked = 0
    vacuous = 0
    sampled = 0
    for n in range(1, n_max + 1):
        for size in range(0, min(smax, 2**n) + 1):
            cell = math.comb(2**n, size)
            exhaustive = cell <= exhaustive_cap
            for ell in range(1, ell_max + 1):
                for lam in range(1, n + 1):
                    bound = 2**n - ell * size ** (2 * ell) * 2 ** (n - lam)
                    if bound <= 0:
                        vacuous += 1
                        continue
                    cf = CFParams(ell, lam, n)
                    if exhaustive:
                        sets = itertools.combinations(range(2**n), size)
                    else:  # drawn lazily, in the loop's order
                        sets = (tuple(sorted(rng.choice(2**n, size=size, replace=False))) for _ in range(sample_count))
                    found = 0
                    for s_tuple in sets:
                        count = cf_count(s_tuple, cf)
                        if count is not None:
                            found += 1
                            violations += count < bound
                    if exhaustive:
                        checked += found
                    else:
                        sampled += found
    entry = rep.add_point({"grid": f"n<={n_max},|S|<={smax},l<={ell_max}"})
    _check(entry, "bound_violations", "EXACT", violations, 0)
    entry["point"]["instances_checked"] = checked
    entry["point"]["instances_sampled"] = sampled
    entry["point"]["vacuous_cells"] = vacuous

    # cross-check the prefix-rule counter against the brute-force cf_set
    mism = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        lam = int(rng.integers(1, n + 1))
        ell = int(rng.integers(1, 3))
        size = int(rng.integers(0, 4))
        s_tuple = tuple(sorted(rng.choice(2**n, size=size, replace=False)))
        cf = CFParams(ell, lam, n)
        count = cf_count(s_tuple, cf)
        if count is not None and count != len(cf_set(s_tuple, cf)):
            mism += 1
    entry2 = rep.add_point({"crosscheck": "vectorized vs exhaustive"})
    _check(entry2, "counter_mismatches", "EXACT", mism, 0)

    # closed form at lam=n, ell=1: everything outside S stays collision-free
    cl = 0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(0, min(5, 2**n)))
        s_tuple = tuple(sorted(rng.choice(2**n, size=size, replace=False)))
        if cf_count(s_tuple, CFParams(1, n, n)) != 2**n - size:
            cl += 1
    entry3 = rep.add_point({"spotcheck": "lam=n,l=1 complement"})
    _check(entry3, "closed_form_mismatches", "EXACT", cl, 0)


# ------------------------------------------------------------------ exp_spru


@dataclass(frozen=True)
class SpruParams(Params):
    n_block: int = _param(2, lo=1)
    overlap: int = _param(1, lo=1)
    lam_small: int = _param(1, lo=0)
    trials: int = _param(1500, lo=1)
    probes: int = _param(6, lo=1)

    def _derive(self):
        spru(self.n_block, self.overlap, self.lam_small)  # the layout's own checks
        _within(2 * (2 * self.n_block - self.overlap), QUBIT_CAP, "a second-moment probe")


def exp_spru(p: SpruParams, rep):
    seed, n_block, overlap, lam_small, trials = p.seed, p.n_block, p.overlap, p.lam_small, p.trials
    layout = spru(n_block, overlap, lam_small)
    d = 2**layout.total_qubits
    rep.notes.append("gluing second-moment check; the bound 5k^2/2^|B| is vacuous at desk scale and labeled so")

    rng = trial_rng(seed, 60_000)
    u = haar_unitaries(2**n_block, [rng])[0]
    m0 = spru_concrete(layout, u, 0, 0, 0)
    rest = 2 ** (layout.total_qubits - n_block)
    # with every key zero each arm collapses to four plain oracle calls
    p4 = np.linalg.matrix_power(u, 4)
    direct = np.kron(np.eye(rest), p4) @ np.kron(p4, np.eye(rest))
    entry = rep.add_point({"check": "zero_keys"})
    _check(entry, "zero_key_composition", "EXACT", float(np.max(np.abs(m0 - direct))), 1e-9)

    # probe operators for the two-fold moment comparison
    probe_ops = []
    prng = trial_rng(seed, 60_001)
    for _ in range(p.probes):
        a = prng.standard_normal((d * d, d * d)) + 1j * prng.standard_normal((d * d, d * d))
        h = (a + a.conj().T) / 2
        probe_ops.append(h / np.linalg.norm(h))

    acc = [np.zeros((d * d, d * d), dtype=complex) for _ in probe_ops]
    eye = np.eye(rest)[None]
    for _, rngs, held in trial_stacks(trials, seed, first=70_000):
        ua = haar_unitaries(2**n_block, rngs)
        ub = haar_unitaries(2**n_block, rngs)
        w = np.kron(eye, ub) @ np.kron(ua, eye)
        w2 = (w[:, :, None, :, None] * w[:, None, :, None, :]).reshape(len(w), d * d, d * d)  # w tensor w per trial
        w2h = w2.conj().swapaxes(-1, -2)
        for total, x in zip(acc, probe_ops):
            for term in w2 @ x @ w2h:  # one trial at a time: a sum over the stack rounds differently
                total += term
        held.append(w2)
    # the Haar twirl projects onto the symmetric and antisymmetric subspaces
    swap = np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]
    projectors = [(q, np.trace(q).real) for q in ((np.eye(d * d) + swap) / 2, (np.eye(d * d) - swap) / 2)]
    dist = 0.0
    for total, x in zip(acc, probe_ops):
        twirl = sum(np.trace(q @ x) / dq * q for q, dq in projectors)
        dist = max(dist, float(np.linalg.norm(total / trials - twirl, 2)))
    entry = rep.add_point({"check": "second_moment"})
    bound = constructions.gluing_bound(2, overlap)
    _check(entry, "moment_distance_vs_gluing_bound", "ASYMPTOTIC", dist, bound)
    entry["point"]["bound_is_vacuous"] = bound >= 1.0
    entry["point"]["arithmetic_output_qubits_example"] = constructions.stretch_output_qubits(8, 4, 2)
    entry["point"]["arithmetic_key_bits_example"] = constructions.stretch_key_bits(4, 2)
