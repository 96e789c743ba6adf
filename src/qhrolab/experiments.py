"""Named desk-scale experiments with bounds, statistics, and pass rules.

Each experiment is deterministic given (params, seed): trials derive their
generators from (seed, trial_index) and results are combined in trial order.
Checks are labeled EXACT (absolute tolerance), MC (statistical, 3 stderr),
or ASYMPTOTIC (constant-slack policy C=5, flagged in every report).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import attacks, constructions
from .constructions import (
    concrete_oracle,
    haar_slot,
    prfs_input,
    prfs_output,
    pru_one_query,
    pru_two_query,
    spru,
    spru_concrete,
)
from .harness import (
    VIEW_QUBIT_CAP,
    AdversaryProgram,
    ClassicalPROracle,
    ClassicalQuery,
    KeyInit,
    QuantumQuery,
    bootstrap_td_pair,
    bootstrap_td_stderr,
    haar_interleave,
    haar_view_mc,
    key_sliced_view,
    key_slices,
    phased_permutation_interleave,
    reduce_view,
    run_pr,
    trial_stacks,
)
from .linalg import (
    QUBIT_CAP,
    VEC_QUBIT_CAP,
    DensityMatrix,
    choi_state,
    haar_unitaries,
    pauli_string,
    trace_distance,
    trial_rng,
)
from .relstate import (
    CFParams,
    PurifiedState,
    Rel,
    cf_count,
    cf_set,
    corx_count,
    key_column,
    label_mask,
    label_rewrite,
    pair_columns,
    project_good,
)

SLACK = 5.0  # constant-slack policy for O(.) bounds; an artifact convention

__all__ = ["SLACK", "ExperimentReport", "EXPERIMENTS", "run_experiment"]


@dataclass
class ExperimentReport:
    name: str
    seed: int
    params: dict
    grid: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for p in self.grid for c in p["checks"])

    def add_point(self, point: dict) -> dict:
        entry = {"point": point, "checks": []}
        self.grid.append(entry)
        return entry

    def to_json(self) -> str:
        obj = {
            "schema_version": 1,
            "experiment": self.name,
            "seed": self.seed,
            "params": self.params,
            "grid": self.grid,
            "notes": self.notes,
            "passed": self.passed,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per check; a field with a comma or a quote is quoted (RFC 4180)."""
        lines = ["point,check,kind,value,bound,stderr,passed"]
        for entry in self.grid:
            pt = ";".join(f"{k}={v}" for k, v in sorted(entry["point"].items()))
            if "," in pt or '"' in pt:
                pt = '"' + pt.replace('"', '""') + '"'
            for c in entry["checks"]:
                lines.append(
                    f"{pt},{c['name']},{c['kind']},{c['value']!r},{c['bound']!r},{c['stderr']!r},{int(c['passed'])}"
                )
        return "\n".join(lines) + "\n"


def _check(entry, name, kind, value, bound, stderr=0.0, passed=None):
    """Add a check to a grid entry; ValueError if a number of it is not finite,
    which is a failed computation, not a falsified bound."""
    value = float(value)
    bound = float(bound)
    stderr = float(stderr)
    if not all(map(math.isfinite, (value, bound, stderr))):
        raise ValueError(f"check {name}: value {value}, bound {bound} or stderr {stderr} is not finite")
    if passed is None:
        passed = value <= bound + 3.0 * stderr
    c = {"name": name, "kind": kind, "value": value, "bound": bound, "stderr": stderr, "passed": bool(passed)}
    entry["checks"].append(c)
    return c


def _check_ge(entry, name, kind, value, floor, stderr=0.0):
    """Lower-bound check; `bound` holds the floor and larger values pass."""
    return _check(
        entry, name, kind, value, floor, stderr,
        passed=float(value) >= float(floor) - 3.0 * float(stderr),
    )


def _mc_check(entry, name, kind, bound, prog, trials, side, ref, boot_seed, keep=None):
    """Check TD(Monte Carlo view of `side`, ref) <= bound + 3 stderr; return (TD, stderr).

    A side is the (sampler, seed) of one haar_view_mc run; ref is an exact
    view or a second side. The bootstrap stderr draws from boot_seed.
    """
    sides = [side, ref] if isinstance(ref, tuple) else [side]
    (mean, batches), *other = [haar_view_mc(prog, sampler, trials, seed, keep=keep) for sampler, seed in sides]
    if other:
        (ref_mean, ref_batches), = other
        td, se = trace_distance(mean, ref_mean), bootstrap_td_pair(batches, ref_batches, boot_seed)
    else:
        td, se = trace_distance(mean, ref), bootstrap_td_stderr(batches, ref, boot_seed)
    _check(entry, name, kind, td, bound, se)
    return td, se


# ---------------------------------------------------------- parameter schemas


def _param(default=dataclasses.MISSING, *, lo=None, choices=None, rule=None):
    """A schema field: its default, the floor of an int (or of each list
    item), the strings it allows, or the rule of a default that follows from
    other fields (the field then defaults to None and `describe` shows it).
    """
    return field(default=default, metadata={"lo": lo, "choices": choices, "rule": rule})


def _kind(f):
    """(what a schema field accepts in words, the test of a value) by annotation."""
    lo, choices, rule = f.metadata["lo"], f.metadata["choices"], f.metadata["rule"]

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= lo

    return {
        "bool": ("true or false", lambda v: isinstance(v, bool)),
        "str": ("one of " + ", ".join(map(json.dumps, choices or ())), lambda v: v in choices),
        # a grid, whose scaling checks compare neighbouring points
        "tuple[int, ...]": (
            f"a strictly increasing non-empty list of ints >= {lo}",
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(is_int, v)) and list(v) == sorted(set(v)),
        ),
    }.get(f.type, (f"an int >= {lo}", lambda v: is_int(v) or (v is None and rule is not None)))


def field_doc(f) -> str:
    """One line of `qhro describe`: a schema field, its default and what it accepts."""
    if f.default is dataclasses.MISSING:
        return f"{f.name} (required; {_kind(f)[0]})"
    default = f.metadata["rule"] or json.dumps(f.default)
    return f"{f.name} = {default} ({_kind(f)[0]})"


@dataclass(frozen=True)
class Params:
    """The parameters of one experiment run, checked before any numerics.

    Each experiment subclasses this with its own fields; `_derive` fills in
    the defaults that follow from other fields and checks fields against
    each other.
    """

    seed: int = _param(lo=0)

    @classmethod
    def parse(cls, params: dict):
        """The schema instance for a dict of overrides; ValueError on bad input."""
        unknown = sorted(set(params) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown parameters: {', '.join(map(str, unknown))}")
        if "seed" not in params:
            raise ValueError("a seed is required")
        return cls(**params)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            words, accepts = _kind(f)
            if not accepts(value):
                raise ValueError(f"{f.name} must be {words}, not {value!r}")
            if f.type == "tuple[int, ...]":
                object.__setattr__(self, f.name, tuple(value))
        self._derive()

    def _derive(self):
        pass

    def recorded(self):
        """The report's params: every field after defaults, but the seed, which
        the report holds on its own."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "seed"}


def _above_pow2(x, n):
    """x > 2^n, without building 2^n for a large n."""
    return x > 1 << min(n, x.bit_length())


def _within(qubits, cap, what):
    """ValueError if a run would build `what` on more than `cap` qubits."""
    if qubits > cap:
        raise ValueError(f"{what} would span {qubits} qubits, over the {cap}-qubit cap")


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


def _scaling_checks(rep, results, name):
    """Check TD(n)/TD(n') >= 1.3 for consecutive (n, TD, stderr) results,
    where both stderrs are below a fifth of their TD."""
    for (n1, td1, se1), (n2, td2, se2) in zip(results, results[1:]):
        if se1 < td1 / 5 and se2 < td2 / 5 and td2 > 0:
            entry = rep.add_point({"n_pair": f"{n1}->{n2}"})
            _check_ge(entry, name, "MC", td1 / td2, 1.3)


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
    _, y, on = rel_g
    h = np.bitwise_xor.reduce(np.where(on, y >> (n - lam), 0), axis=1)
    phi = label_rewrite(psi3, [tuple(map(np.hstack, zip(rel_g, rel_u))), h])
    rel, h = pair_columns(phi, 0), key_column(phi, 1)[phi.label_ids]  # h per entry

    def expected(k):
        sign = np.array([1 - 2 * (bin(k & v).count("1") & 1) for v in range(2**lam)])
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

    # cross-check the vectorized counter against the set builder
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
    if t == 0:
        _check(entry, "fidelity", "EXACT", -1.0, -1.0, passed=True)
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
    for k, state in key_slices(prog, {"G": pru_two_query(n, lam)}, (Rel(), KeyInit(lam))):
        good = project_good(state, label_mask(state, lambda labels: corx_count(labels, 0, 1) == ell))
        psi2p, psi3p = _split_surgery(good), augmented(k)
        overlap += psi2p.inner(psi3p)
        for name, st in (("rho2", state), ("good", good), ("psi2p", psi2p), ("psi3p", psi3p)):
            views[name] = views.get(name, 0) + reduce_view(st).entries
        del state, good, psi2p, psi3p
    rho2, v_good, v_psi2p = (DensityMatrix(views[name] * 2.0**-lam) for name in ("rho2", "good", "psi2p"))
    v_psi3p = DensityMatrix(views["psi3p"])

    fid = 2.0 ** (-lam / 2.0) * abs(overlap)
    _check_ge(entry, "fidelity", "EXACT", fid, math.sqrt(1.0 - (t * t + t * ell) / N) - 1e-9)
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


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class ExperimentDef:
    fn: object  # fn(params, report) fills the report that run_experiment made
    schema: type  # a Params subclass: names, defaults, types and ranges
    description: str
    bound: str
    pass_rule: str


EXPERIMENTS = {
    "exp_mh_bound": ExperimentDef(
        exp_mh_bound,
        MhBoundParams,
        "Haar Monte Carlo view vs exact recording-oracle view for a fixed 2-query adversary",
        "2t(t-1)/(N+1)",
        "TD <= bound + 3*stderr at every n; TD(n)/TD(n+1) >= 1.3 once stderr < TD/5",
    ),
    "exp_pru2": ExperimentDef(
        exp_pru2,
        Pru2Params,
        "two-query keyed construction U X^k U: exact hybrid identities plus end-to-end MC",
        "good mass >= 1-(t^2+t*l)/N; TD(h2,h3) <= 2*sqrt((t^2+t*l)/N); end-to-end sum of three bounds, C=5",
        "all exact identities hold; MC distances within bounds + 3*stderr",
    ),
    "exp_pru1": ExperimentDef(
        exp_pru1,
        Pru1Params,
        "one-query keyed construction (Z^k x I) U: exact hybrid equality via the key-Hadamard isometry, or break mode",
        "secure: TD(h2,h3) <= 1e-8 and sqrt(l)*t^(l+1)/2^(lam/2) end to end; break: advantage >= 0.9 vs <= 0.2",
        "secure: exact equality; break: SWAP-test key search separates the two constructions",
    ),
    "exp_prs": ExperimentDef(
        _oracle_game,
        PrsParams,
        "multi-copy keyed state generator vs independent Haar state, with s oracle queries",
        "O(sqrt(s/2^lam) + (t+s)^2/sqrt(2^n)), C=5; good-pair mass >= 1 - s/2^lam",
        "exact hybrid TD <= C*bound, strictly decreasing in lam and n; MC cross-check within recording bound",
    ),
    "exp_prfs": ExperimentDef(
        _oracle_game,
        PrfsParams,
        "classical-query keyed function-state oracle vs per-input independent Haar states",
        "O(t^2/2^(n-m) + t^2/sqrt(2^n) + sqrt(t/2^lam)), C=5; good-pair mass >= 1 - t/2^lam; needs n >= lam + m_in",
        "exact hybrid TD <= C*bound, strictly decreasing in lam and n; MC cross-check within recording bound",
    ),
    "exp_cf_bound": ExperimentDef(
        exp_cf_bound,
        CfBoundParams,
        "exhaustive/sampled verification of the collision-free set-size lower bound",
        "|CF(S)| >= 2^n - l*|S|^(2l)*2^(n-lam)",
        "zero violations over the grid",
    ),
    "exp_split_augment": ExperimentDef(
        exp_split_augment,
        SplitAugmentParams,
        "split the keyed recording into pair/input parts and compare with the augmented plain recording",
        "fidelity >= sqrt(1 - (t^2+t*l)/N)",
        "fidelity floor holds; the label chain leaves both reduced views unchanged (1e-8)",
    ),
    "exp_spru": ExperimentDef(
        exp_spru,
        SpruParams,
        "staircase composition: zero-key algebra plus the glued second-moment comparison",
        "5k^2/2^|B| with k=2 (vacuous at desk scale, labeled)",
        "zero-key algebra exact; moment distance <= bound",
    ),
}


def run_experiment(name, params) -> ExperimentReport:
    """Run one registered experiment; ValueError on invalid params, before any numerics."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    d = EXPERIMENTS[name]
    p = d.schema.parse(params)
    rep = ExperimentReport(name, p.seed, p.recorded())
    d.fn(p, rep)
    return rep
