"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the benchmark wraps its calls
into actseg's public functions, and for calls the program makes internally
it temporarily replaces the module attribute the caller looks up with a
wrapper that records a span. Spans stay in memory and are written once,
when the run ends.

A span's layer is the part of its name before the first dot (`metrics`,
`grid`, ...). Names without a dot are iteration roots (`pass`, `tick`,
`clip`): a root's self time is the part of an iteration that no layer span
covers.
"""

import contextlib
import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._spans = []          # [name_id, start_ns, end_ns, parent, iteration]
        self._stack = []
        self.iteration = -1

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([nid, time.perf_counter_ns(), 0, parent, self.iteration])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace calls made through module attributes: targets maps
        (module, attribute) to a span name. Restores the originals on exit."""
        saved = []
        try:
            for (module, attr), name in targets.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """Spans as parallel arrays: name id, start/end ns, parent index, iteration."""
        s = np.array(self._spans, dtype=np.int64).reshape(-1, 5)
        return {"name": s[:, 0], "start_ns": s[:, 1], "end_ns": s[:, 2],
                "parent": s[:, 3], "iteration": s[:, 4]}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Summary:
    """Durations and self times of recorded spans, in seconds."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.iteration = a["iteration"]
        self.dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered

    def _mask(self, name):
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def durations(self, name):
        return self.dur[self._mask(name)]

    def median_per_iteration(self, name):
        """Median over iterations of the named spans' total duration (0 in an
        iteration without one)."""
        iters = np.unique(self.iteration[self.parent == -1])
        if not iters.size:
            return 0.0
        m = self._mask(name)
        totals = np.bincount(np.searchsorted(iters, self.iteration[m]), weights=self.dur[m],
                             minlength=iters.size)
        return float(np.median(totals))

    def layer_self(self, layers):
        """Mean self seconds per iteration of each layer (name prefix before the first dot)."""
        roots = self.parent == -1
        n_iter = max(1, np.unique(self.iteration[roots]).size)
        layer_of = [n.split(".", 1)[0] if "." in n else None for n in self.names]
        out = {}
        for layer in layers:
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            out[layer] = float(self.self_time[np.isin(self.name, ids)].sum() / n_iter)
        return out

    def unaccounted_share(self):
        """Share of the iterations' time that no layer span covers."""
        roots = self.parent == -1
        total = self.dur[roots].sum()
        return float(self.self_time[roots].sum() / total) if total > 0 else 0.0
