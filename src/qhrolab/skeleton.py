"""The experiment skeleton: reports, checks and parameter schemas.

Each experiment is deterministic given (params, seed): trials derive their
generators from (seed, trial_index) and results are combined in trial order.
Checks are labeled EXACT (absolute tolerance), MC (statistical, 3 stderr),
or ASYMPTOTIC (constant-slack policy C=5, flagged in every report).
The experiments live in family modules (keyed, bounds) built on this one;
experiments.py registers them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .harness import bootstrap_td_pair, bootstrap_td_stderr, haar_view_mc
from .linalg import trace_distance

SLACK = 5.0  # constant-slack policy for O(.) bounds; an artifact convention

__all__ = ["SLACK", "ExperimentReport", "Params", "field_doc"]


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


def _scaling_checks(rep, results, name):
    """Check TD(n)/TD(n') >= 1.3 for consecutive (n, TD, stderr) results,
    where both stderrs are below a fifth of their TD."""
    for (n1, td1, se1), (n2, td2, se2) in zip(results, results[1:]):
        if se1 < td1 / 5 and se2 < td2 / 5 and td2 > 0:
            entry = rep.add_point({"n_pair": f"{n1}->{n2}"})
            _check_ge(entry, name, "MC", td1 / td2, 1.3)


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
