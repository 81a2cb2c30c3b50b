"""Span recorder that wraps hbn's layer functions from outside.

Callers inside hbn bind by name (`hbn.curves.resultant_v`,
`hbn.differential.matrix_rank`, ...), so `installed()` replaces every
binding of each target across the loaded `hbn.*` modules and puts the
originals back on exit.  A target that no longer exists is skipped and
reports zero calls, so the benchmark survives refactors that remove or
bypass a layer.

Each call records one span: name, parent span, item id, start, end.
Spans stay in compact arrays until the run ends.  A span's self time is
its duration minus the durations of its children; the harness opens
one root span named `item` per item, so the self times of all spans sum
to the traced item time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "item"

# (layer module under hbn, attribute path); the metric prefix is
# "<module>.<attribute>"
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_sample"),
    ("splitting", "stratum_report"),
    ("determinantal", "sample_pair"),
    ("determinantal", "sample_is_point"),
    ("determinantal", "phi"),
    ("determinantal", "det_xy"),
    ("differential", "dominance_rank"),
    ("differential", "cofactor_forms"),
    ("differential", "dphi_matrix"),
    ("differential", "lemma_is_check"),
    ("differential", "lemma_main_check"),
    ("differential", "lemma_sq_check"),
    ("curves", "smoothness"),
    ("curves", "_analyze_chart"),
    ("curves", "discriminant_check"),
    ("curves", "cokernel_rank_check"),
    ("curves", "curve_points"),
    ("exact.linalg", "matrix_rank"),
    ("exact.linalg", "det_mod"),
    ("exact.linalg", "batch_det_mod"),
    ("exact.poly", "pinterp"),
    ("exact.poly2", "resultant_v"),
    ("exact.forms", "BinaryForm.mul"),
)


def layer_name(target) -> str:
    return "{}.{}".format(*target)


def _rank_cells(args, out):
    shape = np.shape(args[0])
    return shape[0] * shape[1]


def _resultant_points(args, out):
    # evaluation points the Sylvester degree bound calls for
    f, g = args[0], args[1]
    if len(f) == 1 and len(g) == 1:
        return 0
    max_f = max((len(c) - 1 for c in f if c), default=0)
    max_g = max((len(c) - 1 for c in g if c), default=0)
    return (len(g) - 1) * max_f + (len(f) - 1) * max_g + 1


def _interp_nodes(args, out):
    return len(args[0])


def _brute_force(args, out):
    return int(out.method == "BRUTE_FORCE")


# counts read off a call's arguments or result: layer -> (counter, hook)
HOOKS = {
    "exact.linalg.matrix_rank": ("cells", _rank_cells),
    "exact.poly2.resultant_v": ("points", _resultant_points),
    "exact.poly.pinterp": ("nodes", _interp_nodes),
    "curves.smoothness": ("brute_force", _brute_force),
}

COUNTERS = tuple(f"{layer}.{name}" for layer, (name, _) in HOOKS.items())


class Recorder:
    """Spans of one traced run, kept in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = (ROOT_SPAN,) + tuple(map(layer_name, self.targets))
        self.name = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.hook_errors = 0
        self.missing: list[str] = []

    def _wrap(self, name_id: int, fn, hook):
        rec = self
        names, parents, items, starts, ends = self.name, self.parent, self.item, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            up = rec.current
            names.append(name_id)
            parents.append(up)
            items.append(rec.item_id)
            ends.append(0.0)
            rec.current = i
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                rec.current = up
            if hook is not None:
                counter, extract = hook
                try:
                    rec.counts[counter] += extract(args, out)
                except Exception:  # a changed signature must not stop the run
                    rec.hook_errors += 1
            return out

        return wrapper

    @contextmanager
    def item_span(self, item_id: int):
        """Root span of one item; every layer span inside carries its id."""
        self.item_id = item_id
        i = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.item.append(item_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.current = -1
            self.item_id = -1

    @contextmanager
    def installed(self):
        """Wrap every binding of each target inside the loaded hbn modules."""
        patches = []  # (namespace object, attribute, original)
        try:
            for name_id, (mod_name, attr) in enumerate(self.targets, start=1):
                label = self.names[name_id]
                owner, leaf, fn = _resolve(f"hbn.{mod_name}", attr)
                if fn is None:
                    self.missing.append(label)
                    continue
                hook = HOOKS.get(label)
                if hook is not None:
                    hook = (f"{label}.{hook[0]}", hook[1])
                wrapper = self._wrap(name_id, fn, hook)
                if isinstance(owner, type):
                    patches.append((owner, leaf, fn))
                    setattr(owner, leaf, wrapper)
                    continue
                for mod in _hbn_modules():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(patches):
                setattr(target, key, original)

    def summary(self) -> dict:
        """calls, self_s and total_s per span name."""
        n_names = len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_t, minlength=n_names)
        return {
            label: {"calls": int(calls[i]), "self_s": float(own[i]), "total_s": float(total[i])}
            for i, label in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span as numpy arrays (names index the `names` array)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            item=np.array(self.item, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )

def _hbn_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "hbn" or n.startswith("hbn."))]


def _resolve(module_name: str, attr: str):
    """(owner, leaf name, function) or (None, None, None) when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = vars(owner).get(leaf)
    if not callable(fn):
        return None, None, None
    return owner, leaf, fn
