"""Per-layer spans for a traced benchmark run, recorded from outside maltkit.

The tracer wraps the public functions of each layer in every maltkit module
namespace that imported them (`cg` is also `maltkit.commutator.cg`), and the
`__init__` of the classes whose construction runs law checks.  Spans nest on
a stack, so each name gets a total time `.s` (outermost calls only) and a
self time `.self_s` (minus the time of nested spans).  Spans are aggregated
per job id in memory and written out when the run ends.

Counts (`.calls`, `.tables` and the computed counts) are kept only from jobs
that finished within the per-job limit, so they repeat exactly between runs;
a job cut by the limit stops at a time-dependent point.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, public name): the layer functions and constructors that are spanned.
TARGETS = [
    ("specfile", "parse_files"),
    ("cli", "main"),
    ("algebra", "iter_term_ops"),
    ("algebra", "FiniteAlgebra"),
    ("congruence", "cg"),
    ("congruence", "join"),
    ("congruence", "congruence_violation"),
    ("commutator", "commutator"),
    ("commutator", "centralize"),
    ("commutator", "center"),
    ("commutator", "lower_series"),
    ("commutator", "upper_series"),
    ("maltsev", "find_maltsev_term"),
    ("maltsev", "torsor_to_group"),
    ("maltsev", "check_maltsev"),
    ("maltsev", "check_associative"),
    ("affinity", "roundtrip_check"),
    ("affinity", "affinity_axiom_check"),
    ("affinity", "FreeAffinity.algebra"),
    ("affinity", "canonical_affinity_tables"),
    ("affinity", "abelianize"),
    ("affinity", "form_isomorphism"),
    ("rings", "FiniteRing"),
    ("rings", "LeftModule"),
    ("rings", "LinearForm"),
    ("rings", "DBimodule"),
    ("abgroup", "isomorphisms"),
    ("abgroup", "additive_maps"),
    ("abgroup", "smith_normal_form"),
    ("extensions", "enumerate_derivations"),
    ("extensions", "crext_check"),
    ("monoid", "check_linear_extension"),
    ("monoid", "check_untwisted"),
    ("monoid", "counterexample_harness"),
]


def _translations(alg, *_):
    """Elementary translations cg rebuilds per call: sum of arity * n^(arity-1)."""
    return sum(op.arity * alg.size ** (op.arity - 1) for op in alg.ops if op.arity > 0)


def _pair_alg_size(alg, R, *_):
    """|R| as a set of pairs: the carrier of the pair algebra commutator builds."""
    return sum(len(b) ** 2 for b in R.blocks())


def _mixed_pairs(alg, R, S, *_):
    """d^2 with d = |{(x,y,z) : x R y, y S z}|: index pairs centralize checks."""
    r_sizes = Counter(R.block_index)
    s_sizes = Counter(S.block_index)
    d = sum(r_sizes[R.block_index[y]] * s_sizes[S.block_index[y]] for y in range(alg.size))
    return d * d


# Computed counts: name -> (counter, function of the call's arguments).
COMPUTED = {
    "congruence.cg": ("translations", _translations),
    "commutator.commutator": ("pair_alg_size", _pair_alg_size),
    "commutator.centralize": ("mixed_pairs", _mixed_pairs),
}
GENERATORS = {"algebra.iter_term_ops"}


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr in TARGETS:
        key = f"{module}.{attr}"
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.s", "s", "lower"))
        out.append((f"{key}.self_s", "s", "lower"))
        if key in GENERATORS:
            out.append((f"{key}.tables", "count", "lower"))
        if key in COMPUTED:
            out.append((f"{key}.{COMPUTED[key][0]}", "count", "lower"))
    out.append(("maltsev.find_maltsev_term.hit_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.stack = []                  # [name, start, child seconds]
        self.active = Counter()          # open spans per name, for recursion
        self.job = None
        self.per_job = {}                # job id -> name -> stat -> value
        self.complete = set()            # jobs whose counts are kept

    # --- spans -----------------------------------------------------------

    def _stats(self, name):
        return self.per_job.setdefault(self.job, defaultdict(Counter))[name]

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])
        self.active[name] += 1

    def exit(self, name):
        _, start, child = self.stack.pop()
        self.active[name] -= 1
        dur = time.perf_counter() - start
        stats = self._stats(name)
        stats["self_s"] += dur - child
        if self.active[name] == 0:
            stats["s"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name, counter, k=1):
        self._stats(name)[counter] += k

    def begin_job(self, job_id):
        self.job = job_id

    def end_job(self, finished: bool):
        # a job cut by the time limit may leave spans open
        while self.stack:
            self.exit(self.stack[-1][0])
        if finished:
            self.complete.add(self.job)
        self.job = None

    # --- wrapping --------------------------------------------------------

    def _wrap_function(self, name, fn):
        computed = COMPUTED.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, "calls")
            if computed:
                # bind, so that arguments passed by keyword are counted too
                self.count(name, computed[0], computed[1](*signature.bind(*args, **kwargs).args))
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if name == "maltsev.find_maltsev_term" and result is not None:
                self.count(name, "found")
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, "calls")
            gen = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(name)
                self.count(name, "tables")
                yield item

        return wrapper

    def install(self):
        """Wrap every target in place; the wrappers stay for the process."""
        modules = [m for k, m in sys.modules.items() if k == "maltkit" or k.startswith("maltkit.")]
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules[f"maltkit.{module}"]
            if "." in attr:                       # a method: wrap on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap_function(name, getattr(cls, meth)))
                continue
            target = getattr(owner, attr)
            if isinstance(target, type):          # a constructor and its law checks
                target.__init__ = self._wrap_function(name, target.__init__)
                continue
            wrap = self._wrap_generator if name in GENERATORS else self._wrap_function
            wrapper = wrap(name, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)

    # --- results ---------------------------------------------------------

    def metrics(self):
        total = defaultdict(Counter)
        for job, names in self.per_job.items():
            for name, stats in names.items():
                for stat, value in stats.items():
                    if stat in ("s", "self_s") or job in self.complete:
                        total[name][stat] += value
        out = {}
        for metric, unit, _ in metric_names():
            if metric.endswith(".hit_ratio"):
                stats = total["maltsev.find_maltsev_term"]
                value = stats["found"] / stats["calls"] if stats["calls"] else 0.0
            else:
                name, stat = metric.rsplit(".", 1)
                value = total[name][stat]
                value = float(value) if unit == "s" else int(value)
            out[metric] = {"value": value, "unit": unit}
        return out

    def spans_by_job(self):
        return {
            job: {name: dict(stats) for name, stats in names.items()}
            for job, names in self.per_job.items()
        }
