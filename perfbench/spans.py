"""Call-site tracing of the uscqed layers: spans, counts and self times.

`Tracer` wraps the public functions listed in `LAYERS` for the duration of a
``with`` block.  The package imports its collaborators by name
(``from .tensors import svd_split``), so a function is replaced in every
uscqed module whose attribute is the original object, which is where the
call is looked up; the originals are put back when the block exits.

Every call records one span ``(name, start, end, parent, run)`` in memory.
A layer's self time is its spans' total duration minus the time covered by
its direct children.  A few wrappers also read counts from the arguments or
the result (Trotter steps, gate applications, SVD shapes); those counts
repeat exactly for the same inputs, unlike the times.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# (module, function) pairs traced, named "<module>.<function>" in reports.
LAYERS = (
    ("tensors", "svd_split"),
    ("tensors", "split_matrix"),
    ("mps", "canonicalize"),
    ("mps", "compress"),
    ("mps", "apply_mpo"),
    ("mps", "site_expectations"),
    ("mps", "correlator_matrix"),
    ("mps", "local_matrix_elements"),
    ("model", "trotter_gates"),
    ("model", "hamiltonian_mpo"),
    ("evolution", "evolve"),
    ("evolution", "imaginary_time_ground_state"),
    ("evolution", "bound_states"),
    ("evolution", "embedded_ground_state"),
    ("scattering", "prepare_input"),
    ("scattering", "momentum_occupations"),
    ("scattering", "run_scattering"),
    ("scattering", "transmission_spectrum"),
    ("scattering", "inelastic_spectrum"),
    ("sweep", "bound_data"),
)
LAYER_NAMES = tuple(f"{home}.{fname}" for home, fname in LAYERS)


def svd_cost(rows: int, cols: int):
    """Computed flops and bytes of one thin complex SVD of a rows x cols matrix.

    Flops follow the R-SVD count for singular values and both thin factors,
    6 m n^2 + 11 n^3 real operations with m >= n, times four for complex
    arithmetic.  Bytes count the input and the three thin outputs once.
    """
    m, n = max(rows, cols), min(rows, cols)
    flops = 4.0 * (6.0 * m * n * n + 11.0 * n ** 3)
    nbytes = 16.0 * (rows * cols + rows * n + n * cols) + 8.0 * n
    return flops, nbytes


class Tracer:
    """Records spans and counts while active; see the module docstring."""

    def __init__(self):
        self.names: list = []          # span index -> layer name
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []        # span index of the caller, -1 at top
        self.runs: list = []           # job index the span belongs to
        self.counts: Counter = Counter()
        self.svd_shapes: Counter = Counter()
        self.run_id = 0
        self._stack: list = []
        self._patched: list = []       # (module, attribute, original)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "uscqed" or name.startswith("uscqed.")}
        try:
            for home, fname in LAYERS:
                original = getattr(modules[f"uscqed.{home}"], fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for mod in modules.values():
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, fname, original = self._patched.pop()
            setattr(mod, fname, original)

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.runs.append(self.run_id)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    # -- counts read from arguments and results ---------------------------

    def _observe_tensors_split_matrix(self, args, kwargs, out):
        rows, cols = (args[0] if args else kwargs["m"]).shape
        flops, nbytes = svd_cost(rows, cols)
        self.counts["tensors.svd.flop"] += flops
        self.counts["tensors.svd.bytes"] += nbytes
        self.svd_shapes[f"{rows}x{cols}"] += 1

    def _observe_evolution_evolve(self, args, kwargs, out):
        gates = args[1] if len(args) > 1 else kwargs["gates"]
        steps = args[2] if len(args) > 2 else kwargs["n_steps"]
        per_step = sum(sum(g is not None for g in stage.gates)
                       for stage in gates.stages)
        self.counts["evolution.evolve.steps"] += steps
        self.counts["evolution.gate_applications"] += steps * per_step

    def _observe_evolution_imaginary_time_ground_state(self, args, kwargs,
                                                       out):
        flow = out[2]
        self.counts["evolution.imaginary_time_ground_state.steps"] += \
            flow.steps
        self.counts["evolution.imaginary_time_ground_state.windows"] += \
            len(flow.taus)
        self.counts["evolution.imaginary_time_ground_state.dtau_halvings"] \
            += sum(b < a for a, b in zip(flow.dtaus, flow.dtaus[1:]))

    def _observe_scattering_run_scattering(self, args, kwargs, out):
        end = out.snapshots[-1].t
        clean = end if out.edge_time is None else min(out.edge_time, end)
        self.counts["scattering.evolved_time"] += end
        self.counts["scattering.clean_time"] += clean

    # -- reductions --------------------------------------------------------

    def layer_times(self) -> dict:
        """Per layer: total and self seconds, and each span's duration."""
        dur = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"total": 0.0, "self": 0.0,
                                        "durations": []})
            rec["total"] += dur[i]
            rec["self"] += dur[i] - child[i]
            rec["durations"].append(dur[i])
        return out

    def write(self, path) -> None:
        """Write every span and count as gzipped JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": [list(row) for row in zip(self.names, self.starts,
                                               self.ends, self.parents,
                                               self.runs)],
            "counts": dict(self.counts),
            "svd_shapes": dict(self.svd_shapes),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
