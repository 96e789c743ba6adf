"""Span tracer for the benchmark's traced runs.

The tracer wraps public qhrolab functions from outside the package. A
function is imported by name into several modules (experiments takes names
from harness, linalg and relstate; harness and attacks from linalg), and a
caller reaches it through its own module's attribute, so every attribute of
every loaded qhrolab module that holds the original function object is
rebound to the wrapper. A rebind that was missed would lose spans silently.

Each call records a span (group id, start, end, parent span) in flat arrays
and adds its self time (its duration minus its children's) to its group.
Counts of work are taken at the same boundaries from argument and result
shapes. A layer that no longer exists is listed in `absent`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (group, module, attribute, hook); several attributes may share a group
LAYERS = (
    ("linalg.haar_unitary", "qhrolab.linalg", "haar_unitary", None),
    ("linalg.apply_unitary", "qhrolab.linalg", "apply_unitary", "gate"),
    ("linalg.pauli_string", "qhrolab.linalg", "pauli_string", None),
    ("linalg.choi_state", "qhrolab.linalg", "choi_state", None),
    ("linalg.trace_distance", "qhrolab.linalg", "trace_distance", None),
    ("harness.bootstrap", "qhrolab.harness", "bootstrap_td_stderr", None),
    ("harness.bootstrap", "qhrolab.harness", "bootstrap_td_pair", None),
    ("harness.run_concrete", "qhrolab.harness", "run_concrete", None),
    ("harness.view_of_state", "qhrolab.harness", "view_of_state", None),
    ("harness.haar_view_mc", "qhrolab.harness", "haar_view_mc", "mc"),
    ("harness.run_pr", "qhrolab.harness", "run_pr", None),
    ("harness.reduce_view", "qhrolab.harness", "reduce_view", "reduce"),
    ("relstate.pr_apply", "qhrolab.relstate", "pr_apply", "record"),
    ("relstate.pcfpr_apply", "qhrolab.relstate", "pcfpr_apply", "record"),
    ("relstate.cf_count", "qhrolab.relstate", "cf_count", None),
    ("relstate.is_collision_free", "qhrolab.relstate", "is_collision_free", None),
    ("relstate.cf_set", "qhrolab.relstate", "cf_set", None),
    ("relstate.surgery", "qhrolab.relstate", "project_good", None),
    ("relstate.surgery", "qhrolab.relstate", "label_rewrite", None),
    ("relstate.surgery", "qhrolab.relstate", "key_slot_hadamard", None),
    ("relstate.surgery", "qhrolab.relstate", "partition_by_key", None),
    ("relstate.surgery", "qhrolab.relstate", "merge_partition", None),
    ("relstate.surgery", "qhrolab.relstate", "apply_injection", None),
    ("relstate.surgery", "qhrolab.relstate", "pair_multisets", None),
    ("relstate.apply_matrix", "qhrolab.relstate", "PurifiedState.apply_matrix", None),
    ("relstate.apply_sparse_map", "qhrolab.relstate", "PurifiedState.apply_sparse_map", None),
    ("attacks.choi_from_copies", "qhrolab.attacks", "choi_from_copies", None),
    ("attacks.swap_or_attack", "qhrolab.attacks", "swap_or_attack", None),
    ("constructions.concrete_oracle", "qhrolab.constructions", "concrete_oracle", None),
    ("constructions.state_output", "qhrolab.constructions", "prs_output", None),
    ("constructions.state_output", "qhrolab.constructions", "prfs_output", None),
    ("experiments.body", "qhrolab.experiments", "run_experiment", None),
)

MAX_SPANS = 4_000_000  # about 130 MB of span arrays; later spans are only aggregated

GROUPS = tuple(dict.fromkeys(group for group, *_ in LAYERS))

# work counters, all exact and repeatable for a given input
COUNTERS = (
    "linalg.apply_unitary.computed_flop",
    "linalg.apply_unitary.computed_bytes",
    "relstate.pr_apply.entries_in",
    "relstate.pr_apply.entries_out",
    "relstate.pcfpr_apply.entries_in",
    "relstate.pcfpr_apply.entries_out",
    "relstate.peak_entries",
    "relstate.peak_labels",
    "harness.reduce_view.entries",
    "harness.mc.trials",
)


class Tracer:
    """Records spans and per-group self time while installed."""

    def __init__(self):
        self.group_id = {g: i for i, g in enumerate(GROUPS)}
        self.span_group = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.absent = []
        self.hook_errors = set()
        self.dropped_spans = 0
        self.root = -1  # position of the running experiment inside its pass
        self._stack = []  # [span index, start ns, child ns]
        self._patches = []
        self.reset()

    def reset(self):
        """Zero the per-pass aggregates; recorded spans are kept."""
        self.self_ns = [0] * len(GROUPS)
        self.calls = [0] * len(GROUPS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_by_root = {}

    # ------------------------------------------------------------ spans

    def _open(self, gid):
        idx = len(self.span_group)
        if idx < MAX_SPANS:
            self.span_group.append(gid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            idx = -1
            self.dropped_spans += 1
        start = time.perf_counter_ns()
        if idx >= 0:
            self.span_start[idx] = start
        self._stack.append([idx, start, 0])

    def _close(self, gid):
        end = time.perf_counter_ns()
        idx, start, child = self._stack.pop()
        if idx >= 0:
            self.span_end[idx] = end
        dur = end - start
        own = dur - child
        self.self_ns[gid] += own
        self.calls[gid] += 1
        key = (self.root, gid)
        self.self_by_root[key] = self.self_by_root.get(key, 0) + own
        if self._stack:
            self._stack[-1][2] += dur

    # ------------------------------------------------------------ counts

    def _peak(self, state):
        c = self.counts
        c["relstate.peak_entries"] = max(c["relstate.peak_entries"], state.entry_count())
        c["relstate.peak_labels"] = max(c["relstate.peak_labels"], state.label_count())

    def _count(self, step, hook, group, *args):
        """Run a counting hook; a changed signature disables the count, not the run."""
        try:
            step(hook, group, *args)
        except (LookupError, AttributeError, TypeError):
            self.hook_errors.add(group)

    def _before(self, hook, group, args, kwargs):
        c = self.counts
        if hook == "gate":
            state = args[0] if args else kwargs["state"]
            u = args[1] if len(args) > 1 else kwargs["u"]
            dim = state.amplitudes.size
            dg = u.entries.shape[0]
            # complex multiply-add = 8 real flops; read and write the
            # state once, read the gate once, 16 bytes per complex
            c["linalg.apply_unitary.computed_flop"] += 8 * dg * dim
            c["linalg.apply_unitary.computed_bytes"] += 16 * (2 * dim + dg * dg)
        elif hook == "record":
            state = args[0] if args else kwargs["state"]
            c[group + ".entries_in"] += state.entry_count()
        elif hook == "reduce":
            state = args[0] if args else kwargs["purified"]
            c["harness.reduce_view.entries"] += state.entry_count()
            self._peak(state)
        elif hook == "mc":
            c["harness.mc.trials"] += args[2] if len(args) > 2 else kwargs["trials"]

    def _after(self, hook, group, result):
        if hook == "record":
            self.counts[group + ".entries_out"] += result.entry_count()
            self._peak(result)

    def _wrap(self, group, hook, fn):
        gid = self.group_id[group]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                tracer._count(tracer._before, hook, group, args, kwargs)
            tracer._open(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(gid)
            if hook is not None:
                tracer._count(tracer._after, hook, group, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self):
        """Rebind every reference to each layer function to its wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name == "qhrolab" or name.startswith("qhrolab.")]
        self.absent = []
        for group, modname, attr, hook in LAYERS:
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(group, hook, original)
            if path:  # a method: the class attribute is the only reference
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------ output

    def snapshot(self):
        """Per-pass aggregates, keyed by metric name."""
        out = {}
        for g, gid in self.group_id.items():
            out[g + ".calls"] = self.calls[gid]
            out[g + ".self_s"] = self.self_ns[gid] / 1e9
        out.update(self.counts)
        out["by_root"] = {
            f"{root}:{GROUPS[gid]}": ns / 1e9 for (root, gid), ns in self.self_by_root.items()
        }
        return out

    def write_spans(self, path):
        """Write the recorded spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            groups=np.array(GROUPS),
            group=np.frombuffer(self.span_group, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )
