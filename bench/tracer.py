"""Spans around calls into dicirculant's public functions.

The package itself is not instrumented.  install() swaps each traced
function for a timing wrapper in every loaded dicirculant module that
holds it (so calls made through `from .x import f` names are caught
too), and uninstall() puts the originals back.  Spans stay in memory
until write() saves them at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import Counter

# (module, function) pairs whose calls become spans.
LAYERS = (
    ("cayley", "validate_spec"),
    ("group", "generated_subgroup"),
    ("cayley", "canonicalize"),
    ("search", "enumerate_specs"),
    ("cayley", "build_graph"),
    ("metrics", "is_distance_regular"),
    ("classifier", "classify"),
    ("classifier", "condition_iii"),
    ("structure", "bipartition"),
    ("structure", "antipodal_classes"),
    ("structure", "is_primitive"),
    ("structure", "recognize_family"),
    ("metrics", "distance_partition"),
    ("fourier", "check_fourier_lemma"),
    ("search", "search_difference_sets"),
    ("classifier", "validate_group_table"),
    ("group", "multiplication_table"),
    ("cli", "main"),
    ("search", "survey"),
    ("search", "evaluate_spec"),
)

LAYER_NAMES = tuple(f"{module}.{func}" for module, func in LAYERS)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.spans = []  # (span_id, parent_id, pass_index, name, start_ns, end_ns)
        self.pass_index = 0
        self._stack = []  # [span_id, name, start_ns, child_ns]
        self._patches = []
        self._wrappers = {}

    def _enter(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.pass_index, name, start, end))

    def exclude(self, seconds):
        """Take time spent outside the package (a speed sample taken
        inside a span) out of the open span's self time."""
        if self._stack:
            self._stack[-1][3] += int(seconds * 1e9)

    def _wrap(self, name, func):
        tracer = self
        if inspect.isgeneratorfunction(func):
            # One call; one span per resumption, so the consumer's work
            # between items is not charged to the generator.
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                gen = func(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                tracer._enter(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._exit()
        return functools.update_wrapper(wrapper, func)

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "dicirculant" or key.startswith("dicirculant.")]
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"dicirculant.{module_name}"], func_name)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, self._wrappers[name])
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def snapshot(self):
        return Counter(self.calls), Counter(self.self_ns)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "parent_id", "pass_index", "name",
                             "start_ns", "end_ns"])
            writer.writerows(sorted(self.spans))
