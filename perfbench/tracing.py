"""In-memory spans around the program's public functions.

`Tracer.install` replaces each traced function, in every schubert_blowup
module that holds a reference to it, by a wrapper that records a span
[name, parent, start, end]. Nothing in the program changes; the wrappers
live only in the benchmark's process. Self time is a span's duration minus
the durations of its direct children.
"""

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, function); a name may cover several functions
SPANS = (
    ("rootsys.build", "rootsys", "build_root_system"),
    ("weyl.longest_element", "weyl", "longest_element"),
    ("weyl.coset_reps", "weyl", "enumerate_coset_reps"),
    ("weyl.length", "weyl", "length"),
    ("flag.beta", "flag", "beta_values"),
    ("flag.dimension", "flag", "dimension"),
    ("flag.schubert_codim", "flag", "schubert_codim"),
    ("blowup.classify", "blowup", "classify"),
    ("blowup.anticanonical", "blowup", "anticanonical_class"),
    ("blowup.cones", "blowup", "nef_generators"),
    ("blowup.cones", "blowup", "mori_generators"),
    ("cli.main", "cli", "main"),
)
COUNTED = (("blowup.intersect", "blowup", "intersect"),)


def _key(name, args):
    """Identity of a call's input, for the share of calls that repeat one."""
    if name == "rootsys.build":
        return args[0]
    if name == "weyl.longest_element":
        return args[1].spec, args[0].members
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.seen = set()

    def new_session(self):
        """Start a new process-lifetime: inputs seen before no longer repeat."""
        self.seen = set()

    def _observe(self, name, args, result):
        key = _key(name, args)
        if key is not None:
            if (name, key) in self.seen:
                self.counts[name + ".repeats"] += 1
            self.seen.add((name, key))
        if name == "rootsys.build":
            self.counts["rootsys.roots_built"] += len(result.positive_roots)
        elif name == "weyl.longest_element":
            self.counts["weyl.longest_element_letters"] += len(result.letters)
        elif name == "weyl.coset_reps":
            self.counts["weyl.coset_reps_out"] += len(result)
        elif name == "blowup.classify":
            self.counts["blowup.verdict." + result.verdict.value] += 1
        elif name == "cli.main" and result == 2:
            self.counts["cli.exit2"] += 1

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package="schubert_blowup"):
        mods = {k: m for k, m in sys.modules.items()
                if k == package or k.startswith(package + ".")}
        for make, table in ((self._span, SPANS), (self._counter, COUNTED)):
            for name, mod, fn_name in table:
                original = getattr(mods[package + "." + mod], fn_name)
                wrapper = make(name, original)
                for m in mods.values():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def summary(self):
        """{name: {"calls", "self_s", "repeats"}} plus the plain counters."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "repeats": 0})
            s["calls"] += 1
            s["self_s"] += t1 - t0 - c
        for name, s in out.items():
            s["repeats"] = self.counts.get(name + ".repeats", 0)
        return {"spans": out, "counts": {k: v for k, v in self.counts.items()
                                         if not k.endswith(".repeats")}}

    def write(self, path):
        with open(path, "a") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
