"""The registry of named desk-scale experiments and the one entry point that runs them.

An experiment is a function of a parameter schema instance and a report
(see skeleton.py); the two families live in keyed.py and bounds.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds, keyed
from .skeleton import SLACK, ExperimentReport, field_doc

__all__ = ["SLACK", "ExperimentReport", "EXPERIMENTS", "run_experiment", "field_doc"]


@dataclass(frozen=True)
class ExperimentDef:
    fn: object  # fn(params, report) fills the report that run_experiment made
    schema: type  # a Params subclass: names, defaults, types and ranges
    description: str
    bound: str
    pass_rule: str


EXPERIMENTS = {
    "exp_mh_bound": ExperimentDef(
        bounds.exp_mh_bound,
        bounds.MhBoundParams,
        "Haar Monte Carlo view vs exact recording-oracle view for a fixed 2-query adversary",
        "2t(t-1)/(N+1)",
        "TD <= bound + 3*stderr at every n; TD(n)/TD(n+1) >= 1.3 once stderr < TD/5",
    ),
    "exp_pru2": ExperimentDef(
        keyed.exp_pru2,
        keyed.Pru2Params,
        "two-query keyed construction U X^k U: exact hybrid identities plus end-to-end MC",
        "good mass >= 1-(t^2+t*l)/N; TD(h2,h3) <= 2*sqrt((t^2+t*l)/N); end-to-end sum of three bounds, C=5",
        "all exact identities hold; MC distances within bounds + 3*stderr",
    ),
    "exp_pru1": ExperimentDef(
        keyed.exp_pru1,
        keyed.Pru1Params,
        "one-query keyed construction (Z^k x I) U: exact hybrid equality via the key-Hadamard isometry, or break mode",
        "secure: TD(h2,h3) <= 1e-8 and sqrt(l)*t^(l+1)/2^(lam/2) end to end; break: advantage >= 0.9 vs <= 0.2",
        "secure: exact equality; break: SWAP-test key search separates the two constructions",
    ),
    "exp_prs": ExperimentDef(
        bounds._oracle_game,
        bounds.PrsParams,
        "multi-copy keyed state generator vs independent Haar state, with s oracle queries",
        "O(sqrt(s/2^lam) + (t+s)^2/sqrt(2^n)), C=5; good-pair mass >= 1 - s/2^lam",
        "exact hybrid TD <= C*bound, strictly decreasing in lam and n; MC cross-check within recording bound",
    ),
    "exp_prfs": ExperimentDef(
        bounds._oracle_game,
        bounds.PrfsParams,
        "classical-query keyed function-state oracle vs per-input independent Haar states",
        "O(t^2/2^(n-m) + t^2/sqrt(2^n) + sqrt(t/2^lam)), C=5; good-pair mass >= 1 - t/2^lam; needs n >= lam + m_in",
        "exact hybrid TD <= C*bound, strictly decreasing in lam and n; MC cross-check within recording bound",
    ),
    "exp_cf_bound": ExperimentDef(
        bounds.exp_cf_bound,
        bounds.CfBoundParams,
        "exhaustive/sampled verification of the collision-free set-size lower bound",
        "|CF(S)| >= 2^n - l*|S|^(2l)*2^(n-lam)",
        "zero violations over the grid",
    ),
    "exp_split_augment": ExperimentDef(
        keyed.exp_split_augment,
        keyed.SplitAugmentParams,
        "split the keyed recording into pair/input parts and compare with the augmented plain recording",
        "fidelity >= sqrt(1 - (t^2+t*l)/N)",
        "fidelity floor holds; the label chain leaves both reduced views unchanged (1e-8)",
    ),
    "exp_spru": ExperimentDef(
        bounds.exp_spru,
        bounds.SpruParams,
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
