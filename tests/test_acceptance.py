"""End-to-end acceptance battery.

Each test is one criterion with pinned tolerances and a wall-clock budget;
`pytest -v` gives one pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np

from qhrolab.attacks import choi_from_copies, rank_ratio
from qhrolab.experiments import run_experiment
from qhrolab.linalg import choi_state, haar_unitary, trial_rng
from qhrolab.labels import Rel, corx
from qhrolab.relstate import PurifiedState, pr_apply


def checks_by_name(report):
    out = {}
    for entry in report.grid:
        for c in entry["checks"]:
            out.setdefault(c["name"], []).append(c)
    return out


def all_rels(N, tmax):
    out = [Rel()]
    for t in range(1, tmax + 1):
        for ys in itertools.combinations(range(N), t):
            for xs in itertools.product(range(N), repeat=t):
                out.append(Rel(zip(xs, ys)))
    return sorted(set(out), key=repr)


def test_criterion_01_recording_isometry_exhaustive():
    # N=4, all relations with |R| <= 2, all inputs: the recording map has an
    # exactly orthonormal image (deviation <= 1e-10), in under a second
    start = time.monotonic()
    N = 4
    images = []
    for rel in all_rels(N, 2):
        for x in range(N):
            st = PurifiedState(2, {(rel,): {x: 1.0}})
            images.append(pr_apply(st, 0, [0, 1], N))
    key_index = {}
    rows = []
    for img in images:
        row = {}
        for lab, vec in img.terms.items():
            for i, a in vec.items():
                j = key_index.setdefault((lab, i), len(key_index))
                row[j] = a
        rows.append(row)
    mat = np.zeros((len(rows), len(key_index)), dtype=complex)
    for r, row in enumerate(rows):
        for j, a in row.items():
            mat[r, j] = a
    gram = mat @ mat.conj().T
    dev = np.max(np.abs(gram - np.eye(len(rows))))
    assert dev <= 1e-10, f"isometry deviation {dev:.2e} over {len(rows)} inputs"
    assert time.monotonic() - start < 1.0


def test_criterion_02_recording_bound_experiment():
    start = time.monotonic()
    rep = run_experiment("exp_mh_bound", {"seed": 11})
    assert rep.passed, rep.to_csv()
    cs = checks_by_name(rep)
    assert len(cs["td_haar_vs_recording"]) == 3  # n = 2, 3, 4
    assert time.monotonic() - start < 300.0


def test_criterion_03_two_query_hybrids():
    start = time.monotonic()
    rep = run_experiment("exp_pru2", {"seed": 7, "n_list": [3], "trials": 3000})
    assert rep.passed, rep.to_csv()
    cs = checks_by_name(rep)
    # exact identities at n=3, t=2, ell=1
    mass = cs["good_key_mass"][0]
    assert mass["kind"] == "EXACT" and abs(mass["value"] - 0.390625) < 1e-9
    td23 = cs["td_hybrid2_vs_hybrid3"][0]
    assert td23["kind"] == "EXACT"
    assert td23["value"] <= 2.0 * math.sqrt(6.0 / 8.0)
    assert time.monotonic() - start < 120.0


def test_criterion_04_one_query_hybrid_equality():
    start = time.monotonic()
    rep = run_experiment("exp_pru1", {"seed": 3, "trials": 400})
    assert rep.passed, rep.to_csv()
    cs = checks_by_name(rep)
    assert cs["td_hybrid2_vs_hybrid3"][0]["value"] <= 1e-8
    assert cs["isometry_state_match"][0]["value"] <= 1e-8
    assert time.monotonic() - start < 120.0


def test_criterion_05_key_search_break():
    start = time.monotonic()
    rep = run_experiment("exp_pru1", {"seed": 3, "mode": "break", "trials": 300})
    assert rep.passed, rep.to_csv()
    cs = checks_by_name(rep)
    assert cs["advantage_one_query_arm"][0]["value"] >= 0.9
    assert cs["advantage_two_query_arm"][0]["value"] <= 0.2
    assert rep.params["trials"] == 300
    assert time.monotonic() - start < 300.0


def test_criterion_06_choi_preparation_fidelity():
    # 100 random (A, B, t) instances on one oracle qubit, fidelity >= 1 - 1e-9
    start = time.monotonic()
    rng = trial_rng(61)
    for i in range(100):
        t = 1 + i % 2
        u = haar_unitary(2, rng).entries
        a = haar_unitary(2**t, rng).entries
        b = haar_unitary(2**t, rng).entries
        made = choi_from_copies(a, b, [choi_state(u[None])] * t)[0]
        ut = u
        for _ in range(t - 1):
            ut = np.kron(ut, u)
        direct = choi_state(b @ ut @ a)
        f = abs(np.vdot(made, direct)) ** 2
        assert f >= 1.0 - 1e-9, f"instance {i}: fidelity {f}"
    assert time.monotonic() - start < 10.0


def test_criterion_07_cf_bound_grid():
    start = time.monotonic()
    rep = run_experiment("exp_cf_bound", {"seed": 3})
    assert rep.passed, rep.to_csv()
    cs = checks_by_name(rep)
    assert cs["bound_violations"][0]["value"] == 0
    assert time.monotonic() - start < 120.0


def test_criterion_08_chained_correlation_keys():
    # R_k = {(x,z), (z^k,y)}: exactly one correlated pair iff k avoids
    # {z^x, y^x}; exhaustive over N=8
    start = time.monotonic()
    N = 8
    bad = 0
    for x in range(N):
        for z in range(N):
            for y in range(N):
                if y == z:
                    continue
                for k in range(N):
                    rel = Rel([(x, z), (z ^ k, y)])
                    single = len(corx(rel, k)) == 1
                    predicted = k not in (z ^ x, y ^ x)
                    bad += single != predicted
    assert bad == 0
    assert time.monotonic() - start < 60.0


def test_criterion_09_rank_ratio_large_parameters():
    start = time.monotonic()
    lam, m, t = 8, 8, 512
    ell_floor = 4 * math.ceil(2 * lam / math.log2(lam))
    assert ell_floor == 24
    for ell in (ell_floor, ell_floor + 8, 2 * ell_floor):
        r = rank_ratio(lam, m, ell, t)
        assert r <= 2 ** -lam, f"ell={ell}: ratio {float(r):.3e}"
    assert time.monotonic() - start < 10.0


def test_criterion_10_state_and_function_oracles():
    start = time.monotonic()
    prs = run_experiment("exp_prs", {"seed": 3})
    assert prs.passed, prs.to_csv()
    cs = checks_by_name(prs)
    assert cs["td_strictly_decreasing_in_lam"][0]["passed"]
    assert cs["td_strictly_decreasing_in_n"][0]["passed"]
    prfs = run_experiment("exp_prfs", {"seed": 3})
    assert prfs.passed, prfs.to_csv()
    cs = checks_by_name(prfs)
    assert cs["td_strictly_decreasing_in_lam"][0]["passed"]
    assert cs["td_strictly_decreasing_in_n"][0]["passed"]
    assert time.monotonic() - start < 600.0


def test_criterion_11_reports_byte_identical():
    start = time.monotonic()
    runs = [
        run_experiment("exp_split_augment", {"seed": 9}).to_json()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    csvs = [run_experiment("exp_spru", {"seed": 9, "trials": 300}).to_csv() for _ in range(2)]
    assert csvs[0] == csvs[1]
    assert time.monotonic() - start < 60.0
