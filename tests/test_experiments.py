"""Experiment registry: small-scale runs, determinism, and input validation."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhrolab import bounds, harness, keyed, labels, relstate, skeleton
from qhrolab.experiments import EXPERIMENTS, SLACK, run_experiment
from qhrolab.harness import KeyInit, key_sliced_view, reduce_view, run_pr
from qhrolab.labels import Rel, corx, key_column, label_mask, pair_columns
from qhrolab.relstate import CFParams, PurifiedState, cf_set, project_good


def checks_by_name(report):
    out = {}
    for entry in report.grid:
        for c in entry["checks"]:
            out.setdefault(c["name"], []).append(c)
    return out


def test_registry_shape():
    assert set(EXPERIMENTS) == {
        "exp_mh_bound",
        "exp_pru2",
        "exp_pru1",
        "exp_prs",
        "exp_prfs",
        "exp_cf_bound",
        "exp_split_augment",
        "exp_spru",
    }
    for d in EXPERIMENTS.values():
        assert d.description and d.bound and d.pass_rule
        assert dataclasses.is_dataclass(d.schema) and issubclass(d.schema, skeleton.Params)
    assert SLACK == 5.0


def test_run_experiment_validation():
    with pytest.raises(KeyError):
        run_experiment("nope", {"seed": 1})
    with pytest.raises(ValueError):
        run_experiment("exp_spru", {})
    with pytest.raises(ValueError):
        run_experiment("exp_mh_bound", {"seed": 1, "trials": 0})
    with pytest.raises(ValueError):
        run_experiment("exp_prfs", {"seed": 1, "n": 2, "lam": 2, "m_in": 1})
    with pytest.raises(ValueError):
        run_experiment("exp_split_augment", {"seed": 1, "t": 2})


def test_mh_bound_small():
    rep = run_experiment("exp_mh_bound", {"seed": 11, "n_list": [2], "trials": 1000})
    cs = checks_by_name(rep)
    c = cs["td_haar_vs_recording"][0]
    assert c["passed"] and c["kind"] == "MC"
    assert c["bound"] == 2.0 * 2 * 1 / 5.0
    assert c["stderr"] > 0


def test_pru2_small_exact_checks():
    rep = run_experiment("exp_pru2", {"seed": 7, "n_list": [3], "trials": 400})
    cs = checks_by_name(rep)
    assert cs["good_key_mass"][0]["passed"]
    assert cs["good_key_mass"][0]["kind"] == "EXACT"
    td23 = cs["td_hybrid2_vs_hybrid3"][0]
    assert td23["kind"] == "EXACT"
    assert td23["value"] <= td23["bound"]
    assert td23["bound"] == 2.0 * math.sqrt((4 + 2) / 8.0)


def test_pru1_secure_small():
    rep = run_experiment("exp_pru1", {"seed": 3, "n": 2, "lam": 2, "t": 2, "ell": 1, "trials": 200})
    cs = checks_by_name(rep)
    assert cs["td_hybrid2_vs_hybrid3"][0]["value"] <= 1e-8
    assert cs["isometry_state_match"][0]["value"] <= 1e-8
    assert rep.passed


def test_pru1_break_small():
    rep = run_experiment("exp_pru1", {"seed": 3, "mode": "break", "trials": 150})
    cs = checks_by_name(rep)
    assert cs["advantage_one_query_arm"][0]["value"] >= 0.9
    assert cs["advantage_two_query_arm"][0]["value"] <= 0.2
    assert rep.params["mode"] == "break"


def test_split_augment_exact_floor():
    rep = run_experiment("exp_split_augment", {"seed": 5})
    cs = checks_by_name(rep)
    fid = cs["fidelity"][0]
    # t=1, ell=1 at N=8: exactly sqrt((N-2)/N)
    assert abs(fid["value"] - math.sqrt(6.0 / 8.0)) < 1e-9
    assert cs["reduced_view_invariance_split"][0]["value"] <= 1e-8
    assert cs["reduced_view_invariance_augment"][0]["value"] <= 1e-8
    assert rep.passed


def test_split_augment_degenerate_t0():
    rep = run_experiment("exp_split_augment", {"seed": 5, "t": 0, "ell": 0})
    # both sides are the empty-query state: fidelity 1 against the floor sqrt(1 - 0)
    (fid,) = checks_by_name(rep)["fidelity"]
    assert (fid["value"], fid["bound"], fid["passed"]) == (1.0, 1.0, True)
    assert rep.passed


def test_spru_small():
    rep = run_experiment("exp_spru", {"seed": 3, "trials": 300})
    cs = checks_by_name(rep)
    assert cs["zero_key_composition"][0]["value"] <= 1e-9
    assert rep.passed


def test_cf_bound_small_grid():
    rep = run_experiment("exp_cf_bound", {"seed": 3, "n_max": 4, "smax": 3, "samples": 50})
    cs = checks_by_name(rep)
    assert cs["bound_violations"][0]["value"] == 0
    assert cs["counter_mismatches"][0]["value"] == 0
    assert cs["closed_form_mismatches"][0]["value"] == 0


def test_prs_prfs_small():
    rep = run_experiment("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 1, "trials": 300})
    assert rep.passed
    rep = run_experiment("exp_prfs", {"seed": 3, "n": 3, "lam": 1, "m_in": 1, "t": 1, "trials": 300})
    assert rep.passed


def test_report_serialization_and_determinism():
    a = run_experiment("exp_split_augment", {"seed": 9})
    b = run_experiment("exp_split_augment", {"seed": 9})
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    obj = json.loads(a.to_json())
    assert obj["schema_version"] == 1
    assert obj["experiment"] == "exp_split_augment"
    assert obj["passed"] is True
    assert a.to_csv().splitlines()[0] == "point,check,kind,value,bound,stderr,passed"
    c = run_experiment("exp_split_augment", {"seed": 10})
    assert a.to_json() != c.to_json()


@pytest.mark.parametrize(
    "name,params",
    [
        ("exp_mh_bound", {"n_list": [2, 3], "trials": 50}),
        ("exp_pru2", {"n_list": [3], "trials": 50}),
        ("exp_pru1", {"trials": 20}),
        ("exp_pru1", {"mode": "break", "trials": 5}),
        ("exp_prs", {"n": 3, "lam": 1, "t": 1, "s": 1, "trials": 50}),
        ("exp_prfs", {"n": 3, "lam": 1, "m_in": 1, "t": 1, "trials": 50}),
        ("exp_cf_bound", {"n_max": 3, "samples": 5}),
        ("exp_split_augment", {}),
        ("exp_spru", {"trials": 20}),
    ],
)
def test_report_csv_has_seven_fields_per_row(name, params):
    # points such as "grid=n<=3,|S|<=4,l<=2" and "scaling=lam,n" hold commas
    rep = run_experiment(name, {"seed": 3, **params})
    text = rep.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["point", "check", "kind", "value", "bound", "stderr", "passed"]
    points = [";".join(f"{k}={v}" for k, v in sorted(e["point"].items())) for e in rep.grid for _ in e["checks"]]
    assert [row[0] for row in rows[1:]] == points
    for row, line in zip(rows, text.splitlines()):
        assert len(row) == 7
        # a field is quoted only when it holds a comma
        assert line == ",".join(row) or any("," in f for f in row)


def test_asymptotic_checks_are_flagged():
    rep = run_experiment("exp_spru", {"seed": 3, "trials": 300})
    kinds = {c["kind"] for e in rep.grid for c in e["checks"]}
    assert "ASYMPTOTIC" in kinds or "EXACT" in kinds
    cs = checks_by_name(rep)
    assert cs["moment_distance_vs_gluing_bound"][0]["kind"] == "ASYMPTOTIC"


# ------------------------------------------- key-sliced real sides and column masks
#
# The real sides of exp_prs / exp_prfs and hybrid 2 of exp_pru2 run one key
# at a time (harness.key_sliced_view). Here each is compared with run_pr on
# the full KeyInit state, and the column masks with the per-label Python
# predicates they replaced.


def oracle_game(kind, a, t, n, lam):
    """The parameters of exp_prs (`a` = s) or exp_prfs (`a` = m_in) at (n, lam), without scaling points."""
    schema, name = (bounds.PrsParams, "s") if kind == "prs" else (bounds.PrfsParams, "m_in")
    return schema.parse({"seed": 0, "n": n, "lam": lam, "t": t, name: a, "scaling": False})


def old_prs_good(n, lam, t):
    return lambda lab: sum(1 for (x, _) in lab[0] if x == lab[1] << (n - lam)) == t


def old_prfs_good(n, lam, t):
    return lambda lab: sum(1 for (x, _) in lab[0] if (x >> (n - lam)) == lab[1]) == t


def old_corx_good(ell):
    return lambda lab: len(corx(lab[0], lab[1])) == ell


def predicate_mask(state, predicate):
    """A label mask from a per-label predicate on decoded labels."""
    return np.array([bool(predicate(lab)) for lab in state.labels()], dtype=bool)


def sliced_calls(monkeypatch):
    """Record (args, result) of every key_sliced_view call made by the experiment families."""
    calls = []

    def recording(program, bindings, init_label, keep=None, mask=None):
        out = key_sliced_view(program, bindings, init_label, keep, mask)
        calls.append(((program, bindings, init_label, keep, mask), out))
        return out

    for module in (keyed, bounds):
        monkeypatch.setattr(module, "key_sliced_view", recording)
    return calls


def run_sliced_point(kind, n, lam, a, t):
    """Run the exact part of one grid point; return the old predicate of its good mass."""
    if kind == "pru2":
        run_experiment("exp_pru2", {"seed": 7, "n_list": [n], "trials": 1})
        return old_corx_good(1)
    bounds._oracle_views(oracle_game(kind, a, t, n, lam), n, lam, want_mass=True)
    return (old_prs_good if kind == "prs" else old_prfs_good)(n, lam, t)


@pytest.mark.parametrize(
    "kind,n,lam,a,t",
    [
        ("prs", 3, 3, 3, 2),
        ("prs", 4, 2, 2, 2),
        ("prfs", 3, 2, 1, 2),
        ("prfs", 4, 2, 1, 2),
        ("pru2", 3, 3, None, 2),
        ("pru2", 4, 4, None, 2),
    ],
)
def test_key_sliced_view_matches_full_state(monkeypatch, kind, n, lam, a, t):
    monkeypatch.setattr(labels, "_MASK_LABELS", 1000)  # many label runs per mask
    calls = sliced_calls(monkeypatch)
    old_good = run_sliced_point(kind, n, lam, a, t)
    (program, bindings, init_label, keep, mask), (view, mass) = calls[0]
    assert KeyInit(lam) in init_label
    full = run_pr(program, bindings, init_label)
    keep_mask = label_mask(full, mask)
    assert np.array_equal(keep_mask, predicate_mask(full, old_good))
    assert 0 < keep_mask.sum() < full.label_count()
    assert np.max(np.abs(view.entries - reduce_view(full, keep).entries)) <= 1e-12
    # the full state's good mass, correctly rounded: its sequential norm_sq
    # over up to 0.9M entries is itself up to 2.2e-12 off at n = 4
    full_mass = math.fsum((np.abs(full.amplitudes[keep_mask[full.label_ids]]) ** 2).tolist())
    assert abs(mass - full_mass) <= 1e-12


def test_split_augment_corx_mask_matches_predicate(monkeypatch):
    projected = []

    def recording(state, keep):
        projected.append((state, keep))
        return project_good(state, keep)

    monkeypatch.setattr(keyed, "project_good", recording)
    run_experiment("exp_split_augment", {"seed": 9})
    # one projection per key slice
    assert len(projected) == 2**3
    for state, keep in projected:
        assert np.array_equal(keep, predicate_mask(state, old_corx_good(1)))
        assert 0 < keep.sum() < state.label_count()


def test_record_point_reduces_no_full_keyed_state(monkeypatch):
    entries = []

    def counting(module):
        original = module.reduce_view

        def counting_reduce_view(state, keep=None):
            entries.append(state.entry_count())
            return original(state, keep)

        monkeypatch.setattr(module, "reduce_view", counting_reduce_view)

    counting(harness)
    counting(bounds)
    # the exp_prs point of the `record` benchmark workload: its full keyed
    # real side held 53,760 entries
    bounds._oracle_views(oracle_game("prs", 3, 2, 3, 3), 3, 3, want_mass=True)
    *slices, ideal = entries
    assert len(slices) == 2**3 and sum(slices) == 53_760
    assert max(entries) < 53_760 and ideal == 18_816


# ------------------------------------------------ isometry checks of exp_pru1 and exp_split_augment


@pytest.mark.parametrize("h", [0, 1])
def test_prefix_xor_split_needs_a_unique_subset(h):
    # G's outputs 2h and 2h + 1 share the prefix h at lam = 1, so two subsets
    # of the pairs give h: (Rel{p}, Rel{q}) and (Rel{q}, Rel{p}) both go to
    # (Rel{p, q}, h)
    p, q = (0, 2 * h), (1, 2 * h + 1)
    psi3 = PurifiedState(2, {(Rel([p]), Rel([q])): {0: 1.0}, (Rel([q]), Rel([p])): {0: 1.0}})
    with pytest.raises(ValueError, match="not injective"):
        keyed._hybrid3_slices(psi3, 2, 1)


def test_hybrid3_slices_sum_labels_with_key_signs():
    # G outputs with prefixes 1 and 0 part the labels into h = 1 and h = 0 of
    # one R, and slice k sums them with the signs (-1)^(h k)
    p, q = (0, 2), (1, 1)
    psi3 = PurifiedState(2, {(Rel([p]), Rel([q])): {0: 0.5}, (Rel([q]), Rel([p])): {0: 1.0}})
    expected = keyed._hybrid3_slices(psi3, 2, 1)
    assert dict(expected(0).terms) == {(Rel([p, q]), 0): {0: 1.5}}
    assert dict(expected(1).terms) == {(Rel([p, q]), 1): {0: 0.5}}


def test_isometry_state_match_sees_one_flipped_sign(monkeypatch):
    original = keyed._hybrid3_slices

    def one_sign_flipped(psi3, n, lam):
        expected = original(psi3, n, lam)

        def slice_k(k):
            state = expected(k)
            if k != 1:
                return state
            amp = state.amplitudes.copy()
            at = np.argmax(np.abs(amp))
            amp[at] = -amp[at]
            slots = [pair_columns(state, 0), key_column(state, 1)]
            return PurifiedState.from_columns(n, slots, state.label_ids, state.indices, amp)

        return slice_k

    monkeypatch.setattr(keyed, "_hybrid3_slices", one_sign_flipped)
    (check,) = checks_by_name(run_experiment("exp_pru1", {"seed": 3, "trials": 2}))["isometry_state_match"]
    assert check["value"] > 1e-8 and not check["passed"]


def test_pru1_unkeyed_hybrid2_runs_once(monkeypatch):
    inits = []

    def recording(program, bindings, init_label):
        inits.append(init_label)
        return run_pr(program, bindings, init_label)

    monkeypatch.setattr(harness, "run_pr", recording)
    monkeypatch.setattr(keyed, "run_pr", recording)
    cs = checks_by_name(run_experiment("exp_pru1", {"seed": 3, "ell": 0, "trials": 2}))
    # with ell = 0, G is never queried: hybrid 2 runs once, with a plain key
    assert inits == [(Rel(), 0), (Rel(), Rel())]
    assert cs["td_hybrid2_vs_hybrid3"][0]["passed"]
    assert "isometry_state_match" not in cs


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_secure_pru1_never_builds_a_cf_set(monkeypatch, ell):
    # the recording path takes its free sets from the prefix rule alone
    params = {"seed": 3, "n": 3, "t": 3, "ell": ell, "trials": 2}
    reference = run_experiment("exp_pru1", params).to_json()

    def refuse(*args):
        raise AssertionError("cf_set was called")

    monkeypatch.setattr(relstate, "cf_set", refuse)
    monkeypatch.setattr(bounds, "cf_set", refuse)
    assert run_experiment("exp_pru1", params).to_json() == reference


def two_pair_state(rel, k):
    return PurifiedState(1, {(Rel(rel), k): {0: 1.0}, (Rel([(0, 3), (3 ^ 5, 6)]), 5): {1: 1.0}})


@pytest.mark.parametrize(
    "rel,k,match",
    [
        ([(0, 1)], 1, "exactly two pairs"),
        ([(0, 1), (2, 3), (4, 5)], 1, "exactly two pairs"),
        ([(0, 3), (5, 6)], 3, "matches itself"),
        ([(0, 1), (2, 3)], 7, "not exactly one"),
        ([(0, 1), (2, 3)], 3, "not exactly one"),
    ],
)
def test_split_surgery_needs_one_matching_pair(rel, k, match):
    with pytest.raises(ValueError, match=match):
        keyed._split_surgery(two_pair_state(rel, k))


def test_split_surgery_moves_z_out_of_the_relation():
    # p = (x, z) and q = (z ^ k, y), with p first and then second in the Rel
    st0 = PurifiedState(1, {(Rel([(0, 3), (6, 6)]), 5): {0: 0.6}, (Rel([(5, 2), (3, 7)]), 1): {1: 0.8}})
    out = keyed._split_surgery(st0)
    assert dict(out.terms) == {(Rel([(0, 6)]), 3, 5): {0: 0.6}, (Rel([(5, 7)]), 2, 1): {1: 0.8}}


def test_split_augment_never_decodes_labels(monkeypatch):
    def refuse(*args):
        raise AssertionError("a label was decoded")

    reference = run_experiment("exp_split_augment", {"seed": 9, "n": 3}).to_json()
    monkeypatch.setattr(relstate, "_decode", refuse)
    monkeypatch.setattr(labels, "_rels", refuse)
    assert run_experiment("exp_split_augment", {"seed": 9, "n": 3}).to_json() == reference


@pytest.mark.parametrize(
    "name,params,lam",
    [
        ("exp_pru1", {"seed": 3, "trials": 2}, 3),
        ("exp_pru1", {"seed": 3, "n": 3, "lam": 2, "ell": 2, "trials": 2}, 2),
        ("exp_split_augment", {"seed": 9}, 3),
    ],
)
def test_no_whole_keyed_state_is_built(monkeypatch, name, params, lam):
    calls = []

    def recording(program, bindings, init_label):
        state = run_pr(program, bindings, init_label)
        calls.append((program, bindings, init_label, state.entry_count()))
        return state

    monkeypatch.setattr(harness, "run_pr", recording)
    monkeypatch.setattr(keyed, "run_pr", recording)
    run_experiment(name, params)
    assert not any(isinstance(slot, KeyInit) for _, _, init, _ in calls for slot in init)
    program, bindings, init, _ = next(c for c in calls if isinstance(c[2][-1], int))
    whole = run_pr(program, bindings, init[:-1] + (KeyInit(lam),)).entry_count()
    assert max(count for *_, count in calls) <= whole / 2**lam


# ------------------------------------------------------------ parameter schemas


def test_report_params_record_every_field():
    small = {"seed": 3, "n_max": 3, "smax": 2, "samples": 5}
    reports = [run_experiment("exp_cf_bound", {**small, "exhaustive_cap": cap}) for cap in (60000, 10)]
    assert [r.params["exhaustive_cap"] for r in reports] == [60000, 10]
    assert reports[0].params != reports[1].params
    for name, d in EXPERIMENTS.items():
        fields = {f.name for f in dataclasses.fields(d.schema)} - {"seed"}
        assert set(d.schema.parse({"seed": 3}).recorded()) == fields


def test_pru1_lam_defaults_to_n():
    rep = run_experiment("exp_pru1", {"seed": 3, "n": 2, "trials": 10})
    assert rep.params["lam"] == 2


def test_pru1_mode_is_secure_or_break():
    with pytest.raises(ValueError, match="mode"):
        run_experiment("exp_pru1", {"seed": 3, "mode": "Break"})
    p = EXPERIMENTS["exp_pru1"].schema.parse({"seed": 3, "mode": "break"})
    assert (p.n, p.lam, p.trials, p.copies_per_key) == (3, 3, 4000, 12)


@pytest.fixture
def no_numerics(monkeypatch):
    """A registry whose experiment bodies fail the test when reached."""

    def unreachable(p, rep):
        raise AssertionError(f"numerics ran for {p!r}")

    for name, d in EXPERIMENTS.items():
        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(d, fn=unreachable))


@pytest.mark.parametrize(
    "name,params",
    [
        ("exp_prs", {"seed": 1, "nn": 7, "lamda": 2}),
        ("exp_spru", {"seed": 1, "trials": True}),
        ("exp_cf_bound", {"seed": 1.0}),
        ("exp_cf_bound", {"seed": -1}),
        ("exp_mh_bound", {"seed": 1, "n_list": 3}),
        ("exp_mh_bound", {"seed": 1, "n_list": [2, "3"]}),
        ("exp_mh_bound", {"seed": 1, "n_list": []}),
        ("exp_pru2", {"seed": 1, "lam": 0}),
        ("exp_pru2", {"seed": 1, "lam": 4}),
        ("exp_pru1", {"seed": 1, "n": 2, "lam": 3}),
        ("exp_pru1", {"seed": 1, "t": 1, "ell": 2}),
        ("exp_prs", {"seed": 1, "scaling": 1}),
        ("exp_prs", {"seed": 1, "n": 3, "lam": 3}),
        ("exp_prfs", {"seed": 1, "n": 3, "lam": 2}),
        ("exp_split_augment", {"seed": 1, "trials": 5}),
        ("exp_spru", {"seed": 1, "probes": 0}),
        ("exp_split_augment", {"seed": 9, "n": 1}),
        # the scaling checks compare neighbouring grid points, so a grid increases
        ("exp_mh_bound", {"seed": 11, "n_list": [3, 2], "trials": 4000}),
        ("exp_mh_bound", {"seed": 11, "n_list": [2, 2], "trials": 4000}),
        ("exp_pru2", {"seed": 7, "n_list": [4, 3]}),
        # with no classical or no direct query the exact TD is 0, so scaling cannot pass
        ("exp_prs", {"seed": 3, "n": 3, "lam": 2, "t": 0, "s": 2}),
        ("exp_prs", {"seed": 3, "n": 3, "lam": 2, "t": 2, "s": 0}),
        ("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 0}),
        ("exp_prfs", {"seed": 3, "n": 3, "lam": 1, "t": 0, "m_in": 1}),
        # a sampled set of n = 63 bits does not fit a 64-bit int
        ("exp_cf_bound", {"seed": 1, "n_max": 63, "samples": 1, "exhaustive_cap": 0}),
    ],
)
def test_invalid_params_fail_before_numerics(no_numerics, name, params):
    with pytest.raises(ValueError):
        run_experiment(name, params)


def test_split_augment_smallest_n_has_chained_pairs():
    # at n = 1 (N = 2) no key has exactly one chained pair, so n starts at 2
    with pytest.raises(ValueError, match="n must be an int >= 2"):
        EXPERIMENTS["exp_split_augment"].schema.parse({"seed": 9, "n": 1})
    rep = run_experiment("exp_split_augment", {"seed": 9, "n": 2})
    assert all(c["passed"] for e in rep.grid for c in e["checks"])
    assert rep.grid[0]["point"]["n"] == 2


@pytest.mark.parametrize(
    "name,at_cap,over_cap",
    [
        # a sampled Haar unitary: linalg.QUBIT_CAP
        ("exp_mh_bound", {"n_list": [2, 14]}, {"n_list": [2, 15]}),
        # full-register views: harness.VIEW_QUBIT_CAP
        ("exp_pru2", {"n_list": [12]}, {"n_list": [3, 13]}),
        ("exp_pru1", {"n": 12}, {"n": 13}),
        ("exp_pru1", {"mode": "break", "n": 12}, {"mode": "break", "n": 13}),
        ("exp_split_augment", {"n": 12}, {"n": 13}),
        # views on the first 2n qubits (n + t*n with fewer), at n + 1 when scaling
        ("exp_prs", {"n": 6, "lam": 1, "t": 1, "s": 0, "scaling": False}, {"n": 7, "lam": 1, "t": 1, "s": 0, "scaling": False}),
        ("exp_prs", {"n": 5, "lam": 1, "t": 1, "s": 1}, {"n": 6, "lam": 1, "t": 1, "s": 1}),
        ("exp_prs", {"n": 12, "lam": 1, "t": 0, "s": 1, "scaling": False}, {"n": 13, "lam": 1, "t": 0, "s": 1, "scaling": False}),
        ("exp_prfs", {"n": 5, "lam": 1, "t": 2}, {"n": 6, "lam": 1, "t": 2}),
        # the Monte Carlo register of n(1 + t) qubits: linalg.VEC_QUBIT_CAP
        ("exp_prs", {"n": 6, "lam": 1, "t": 3, "s": 0, "scaling": False}, {"n": 6, "lam": 1, "t": 4, "s": 0, "scaling": False}),
        ("exp_prfs", {"n": 6, "lam": 1, "t": 3, "scaling": False}, {"n": 6, "lam": 1, "t": 4, "scaling": False}),
        # exp_spru's (d^2, d^2) probes on 2(2 n_block - overlap) qubits: linalg.QUBIT_CAP
        ("exp_spru", {"n_block": 4, "overlap": 1}, {"n_block": 5, "overlap": 2}),
    ],
)
def test_size_caps_are_schema_checks(name, at_cap, over_cap):
    schema = EXPERIMENTS[name].schema
    schema.parse({"seed": 1, **at_cap})
    with pytest.raises(ValueError, match="-qubit cap"):
        schema.parse({"seed": 1, **over_cap})


def typed_in_range(f, v):
    """What a schema field accepts, stated apart from the validator."""
    lo = f.metadata["lo"]
    if f.type == "bool":
        return type(v) is bool
    if f.type == "str":
        return v in f.metadata["choices"]
    if f.type == "tuple[int, ...]":
        ints = type(v) in (list, tuple) and len(v) > 0 and all(type(x) is int and x >= lo for x in v)
        return ints and all(a < b for a, b in zip(v, v[1:]))
    if v is None:
        return f.metadata["rule"] is not None
    # exp_cf_bound draws sets of n_max-bit strings as 64-bit ints
    return type(v) is int and v >= lo and not (f.name == "n_max" and v > 62)


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(["secure", "break"]),
    st.lists(st.one_of(st.integers(-1, 9), st.booleans(), st.floats(allow_nan=False)), max_size=3),
)


@st.composite
def named_params(draw):
    """(experiment name, a dict of drawn values for its fields and for unknown keys)."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    fields = sorted(f.name for f in dataclasses.fields(EXPERIMENTS[name].schema))
    keys = draw(st.lists(st.sampled_from(fields + ["nn", "lamda"]), unique=True))
    return name, {k: draw(VALUES) for k in keys}


# The domain limits at their boundary: `accepted` says whether the schema
# takes these typed, in-range values. Each accepted case runs (see
# test_domain_limits_at_the_boundary_run); no rejected one can: a recording
# step would find no free output, or the spru layout would refuse it.
@settings(max_examples=400, deadline=None)
@given(case=named_params(), accepted=st.none())
@example(case=("exp_mh_bound", {"seed": 1, "n_list": [1], "t": 2}), accepted=True)
@example(case=("exp_mh_bound", {"seed": 1, "n_list": [3, 1], "t": 3}), accepted=False)
@example(case=("exp_mh_bound", {"seed": 11, "n_list": [3, 2]}), accepted=False)
@example(case=("exp_mh_bound", {"seed": 11, "n_list": [2, 2]}), accepted=False)
@example(case=("exp_mh_bound", {"seed": 11, "n_list": [2, 3]}), accepted=True)
@example(case=("exp_pru2", {"seed": 7, "n_list": [4, 3]}), accepted=False)
@example(case=("exp_prs", {"seed": 3, "n": 3, "lam": 2, "t": 0, "s": 2}), accepted=False)
@example(case=("exp_prs", {"seed": 3, "n": 3, "lam": 2, "t": 2, "s": 0}), accepted=False)
@example(case=("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 0}), accepted=False)
@example(case=("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 1}), accepted=True)
@example(case=("exp_prs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "s": 0, "scaling": False}), accepted=True)
@example(case=("exp_prfs", {"seed": 3, "n": 3, "lam": 1, "t": 0, "m_in": 1}), accepted=False)
@example(case=("exp_prfs", {"seed": 3, "n": 3, "lam": 1, "t": 1, "m_in": 1}), accepted=True)
@example(case=("exp_prs", {"seed": 1, "n": 2, "lam": 1, "t": 2, "s": 2}), accepted=True)
@example(case=("exp_prs", {"seed": 1, "n": 2, "lam": 1, "t": 5, "s": 0}), accepted=False)
@example(case=("exp_prfs", {"seed": 1, "n": 2, "lam": 1, "m_in": 0, "t": 2}), accepted=True)
@example(case=("exp_prfs", {"seed": 1, "n": 3, "lam": 1, "m_in": 1, "t": 5}), accepted=False)
@example(case=("exp_pru1", {"seed": 1, "n": 1, "t": 2}), accepted=True)
@example(case=("exp_pru1", {"seed": 1, "n": 1, "t": 3}), accepted=False)
@example(case=("exp_pru1", {"seed": 1, "n": 2, "lam": 1, "t": 3}), accepted=False)
@example(case=("exp_pru1", {"seed": 1, "mode": "break", "n": 1, "t": 3}), accepted=True)
@example(case=("exp_pru1", {"seed": 1, "n": 2, "ell": 2, "t": 3}), accepted=True)
@example(case=("exp_pru1", {"seed": 1, "n": 2, "ell": 2, "t": 4}), accepted=False)
@example(case=("exp_pru1", {"seed": 1, "n": 7, "ell": 4, "t": 4}), accepted=False)
@example(case=("exp_spru", {"seed": 1, "n_block": 2, "overlap": 1, "lam_small": 2}), accepted=True)
@example(case=("exp_spru", {"seed": 1, "n_block": 2, "overlap": 2}), accepted=False)
@example(case=("exp_spru", {"seed": 1, "n_block": 2, "lam_small": 3}), accepted=False)
@example(case=("exp_cf_bound", {"seed": 1, "n_max": 62, "samples": 1, "exhaustive_cap": 0}), accepted=True)
@example(case=("exp_cf_bound", {"seed": 1, "n_max": 63, "samples": 1, "exhaustive_cap": 0}), accepted=False)
def test_validator_accepts_only_typed_in_range_values(case, accepted):
    name, params = case
    schema = EXPERIMENTS[name].schema
    fields = {f.name: f for f in dataclasses.fields(schema)}
    bad = "seed" not in params or any(k not in fields or not typed_in_range(fields[k], v) for k, v in params.items())
    if bad:
        with pytest.raises(ValueError):
            schema.parse(params)
        return
    try:
        p = schema.parse(params)
    except ValueError:
        assert accepted is not True
        return  # a check of fields against each other
    assert accepted is not False
    for k, v in params.items():
        if v is not None:
            assert getattr(p, k) == (tuple(v) if isinstance(v, list) else v)


@pytest.mark.parametrize(
    "name,params",
    [
        ("exp_mh_bound", {"seed": 1, "n_list": [1], "t": 2, "trials": 20}),
        ("exp_prs", {"seed": 1, "n": 2, "lam": 1, "t": 2, "s": 2, "scaling": False, "trials": 20}),
        ("exp_prfs", {"seed": 1, "n": 2, "lam": 1, "m_in": 0, "t": 2, "scaling": False, "trials": 20}),
        ("exp_pru1", {"seed": 1, "n": 1, "t": 2, "trials": 20}),
        ("exp_pru1", {"seed": 1, "n": 2, "ell": 2, "t": 3, "trials": 20}),
        ("exp_spru", {"seed": 1, "n_block": 2, "overlap": 1, "lam_small": 2, "trials": 20}),
        ("exp_cf_bound", {"seed": 1, "n_max": 62, "samples": 1, "exhaustive_cap": 0}),
    ],
)
def test_domain_limits_at_the_boundary_run(name, params):
    # the largest accepted value runs to a report; one more is refused by the schema
    assert run_experiment(name, params).grid


def smallest_stuck_set(fold, lam):
    """The size of the smallest collision-free prefix set in {0,1}^lam that
    no further prefix extends (sets are searched from 0, as translation
    preserves collision freeness), or None if every such set holds 7 or more."""
    params = CFParams(fold, lam, lam)

    def grow(s):
        if len(s) >= 7:
            return None
        free = cf_set(s, params)
        if not free:
            return len(s)
        sizes = [grow(s + [y]) for y in sorted(free) if y > s[-1]]
        return min((k for k in sizes if k is not None), default=None)

    return grow([0])


def test_secure_query_limits_match_exhaustive_search():
    for fold, stuck in keyed._CF_STUCK.items():
        for lam in range(1, 5):
            assert smallest_stuck_set(fold, lam) == (stuck[lam - 1] if lam <= len(stuck) else None)


@pytest.mark.parametrize("kind,a", [("prs", 2), ("prfs", 1)])
@pytest.mark.parametrize("n,lam", [(3, 1), (4, 2)])
def test_ideal_side_is_maximally_mixed(monkeypatch, kind, a, n, lam):
    # one independent relation per w and one for U: on the first 2n qubits
    # the ideal view is I/4^n (largest deviation measured: 3.1e-17)
    monkeypatch.setattr(bounds, "key_sliced_view", lambda *args: (None, None))
    _, _, v_ideal, _, keep = bounds._oracle_views(oracle_game(kind, a, 2, n, lam), n, lam, want_mass=False)
    assert len(keep) == 2 * n
    assert np.max(np.abs(v_ideal.entries - np.eye(4**n) / 4**n)) <= 1e-15
