"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer's public functions with wrappers in
every treeindex module namespace that holds them, so calls both across
and within modules are seen; `uninstall` puts the originals back.  Each
wrapper records a span (name, parent span, start, end, failed) in memory;
a generator such as `enumerate_trees` records one span per resumption.
Self time is a span's duration minus that of its child spans.  Nothing is
wrapped unless a traced pass asks for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

MODULES = ("treeindex", "treeindex.trees", "treeindex.spectral",
           "treeindex.transforms", "treeindex.enumeration", "treeindex.cli")

QUERY_NAMES = ("is_caterpillar", "branching_points", "buds", "trunk_path", "branch",
               "proper_branches", "branch_bud", "arms", "semiregular_degree",
               "nonpendant_vertices")
ISOMORPHISM_NAMES = ("isomorphism_map", "canonical_order")
SPIRAL_NAMES = ("spiral_rearrangement", "_spiral")

# (defining module, function names); "_spiral" is private to transforms but
# is where the witness replay spends its spiral time, so it is wrapped when
# present.
TRACED = (
    ("treeindex.spectral", ("spectral_radius",)),
    ("treeindex.enumeration", ("free_trees", "enumerate_trees", "find_minimizers")),
    ("treeindex.trees", ("canonical_form", "tree_from_edges") + ISOMORPHISM_NAMES + QUERY_NAMES),
    ("treeindex.transforms", ("caterpillar_bound_witness", "reduce_to_caterpillar",
                              "switch_certificate") + SPIRAL_NAMES),
    ("treeindex.cli", ("main",)),
)
OPTIONAL = {"_spiral"}

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "spectral.calls": ("count", "lower"),
    "spectral.busy_s": ("s", "lower"),
    "spectral.iterations": ("count", "lower"),
    "spectral.polished_calls": ("count", "lower"),
    "spectral.stage2_calls": ("count", "lower"),
    "spectral.stage2_s": ("s", "lower"),
    "spectral.calls_per_tree": ("ratio", "lower"),
    "spectral.call_p50_ms": ("ms", "lower"),
    "enumeration.skeletons": ("count", "lower"),
    "enumeration.skeleton_s": ("s", "lower"),
    "enumeration.decorations": ("count", "lower"),
    "enumeration.trees": ("count", "higher"),
    "enumeration.dedup_yield": ("ratio", "higher"),
    "enumeration.enumerate_self_s": ("s", "lower"),
    "enumeration.search_self_s": ("s", "lower"),
    "enumeration.tie_candidates": ("count", "lower"),
    "trees.canonical_calls": ("count", "lower"),
    "trees.canonical_s": ("s", "lower"),
    "trees.canonical_failed": ("count", "lower"),
    "trees.builds": ("count", "lower"),
    "trees.build_s": ("s", "lower"),
    "trees.query_s": ("s", "lower"),
    "trees.isomorphism_s": ("s", "lower"),
    "transforms.witnesses": ("count", "higher"),
    "transforms.witness_self_s": ("s", "lower"),
    "transforms.reduction_steps": ("count", "lower"),
    "transforms.reduce_s": ("s", "lower"),
    "transforms.switch_certs": ("count", "lower"),
    "transforms.switch_s": ("s", "lower"),
    "transforms.spiral_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock  # run.py passes a clock that skips the probe's time
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.failed: list[bool] = []
        self.stage2: set[int] = set()      # spectral spans in extended precision
        self.iterations = 0
        self.polished = 0
        self.spectral_trees: set = set()
        self.skeletons = 0
        self.yielded = 0
        self.reduction_steps = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.failed.append(False)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int, failed: bool = False) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()
        self.failed[idx] = failed

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, failed=True)
                raise
            tracer._close(idx)
            if after is not None:
                after(idx, result, args, kwargs)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx, failed=True)
                        raise
                    tracer._close(idx)
                    tracer.yielded += 1
                    yield item

            return resumed()

        return wrapper

    # -- per-function bookkeeping ----------------------------------------

    def _after_spectral(self, signature):
        def after(idx, result, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["extended"]:
                self.stage2.add(idx)
            self.iterations += result.iterations
            if result.iterations > bound.arguments["max_iter"] // 2:
                self.polished += 1
            self.spectral_trees.add(bound.arguments["t"])

        return after

    def _after_free_trees(self, idx, result, args, kwargs):
        self.skeletons += len(result)

    def _after_reduce(self, idx, result, args, kwargs):
        self.reduction_steps += len(result.steps)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, names in TRACED:
            home_mod = importlib.import_module(home)
            for name in names:
                original = getattr(home_mod, name, None)
                if original is None:
                    if name in OPTIONAL:
                        continue
                    raise AttributeError(f"{home}.{name} is gone; update bench/tracing.py")
                if inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(name, original)
                else:
                    after = {
                        "spectral_radius": self._after_spectral(inspect.signature(original)),
                        "free_trees": self._after_free_trees,
                        "reduce_to_caterpillar": self._after_reduce,
                    }.get(name)
                    wrapped = self._wrap(name, original, after)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (all but trace.overhead_s)."""
        count = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(count)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + own[i]

        def under(child: str, parent: str) -> list[int]:
            return [i for i, name in enumerate(self.names) if name == child
                    and self.parents[i] >= 0 and self.names[self.parents[i]] == parent]

        spectral = [dur[i] for i, name in enumerate(self.names) if name == "spectral_radius"]
        decorations = len(under("tree_from_edges", "enumerate_trees"))
        # find_minimizers spans are the parents of stage-2 calls in this
        # program: the tie candidates re-resolved in extended precision.
        ties = sum(1 for i in under("spectral_radius", "find_minimizers") if i in self.stage2)
        n_calls = calls.get("spectral_radius", 0)
        return {
            "spectral.calls": n_calls,
            "spectral.busy_s": total.get("spectral_radius", 0.0),
            "spectral.iterations": self.iterations,
            "spectral.polished_calls": self.polished,
            "spectral.stage2_calls": len(self.stage2),
            "spectral.stage2_s": sum(dur[i] for i in self.stage2),
            "spectral.calls_per_tree": n_calls / len(self.spectral_trees) if n_calls else 0.0,
            "spectral.call_p50_ms": 1000.0 * statistics.median(spectral) if spectral else 0.0,
            "enumeration.skeletons": self.skeletons,
            "enumeration.skeleton_s": total.get("free_trees", 0.0),
            "enumeration.decorations": decorations,
            "enumeration.trees": self.yielded,
            "enumeration.dedup_yield": self.yielded / decorations if decorations else 0.0,
            "enumeration.enumerate_self_s": self_s.get("enumerate_trees", 0.0),
            "enumeration.search_self_s": self_s.get("find_minimizers", 0.0),
            "enumeration.tie_candidates": ties,
            "trees.canonical_calls": calls.get("canonical_form", 0),
            "trees.canonical_s": self_s.get("canonical_form", 0.0),
            "trees.canonical_failed": sum(
                1 for i, name in enumerate(self.names) if name == "canonical_form" and self.failed[i]
            ),
            "trees.builds": calls.get("tree_from_edges", 0),
            "trees.build_s": self_s.get("tree_from_edges", 0.0),
            "trees.query_s": sum(self_s.get(name, 0.0) for name in QUERY_NAMES),
            "trees.isomorphism_s": sum(self_s.get(name, 0.0) for name in ISOMORPHISM_NAMES),
            "transforms.witnesses": calls.get("caterpillar_bound_witness", 0),
            "transforms.witness_self_s": self_s.get("caterpillar_bound_witness", 0.0),
            "transforms.reduction_steps": self.reduction_steps,
            "transforms.reduce_s": self_s.get("reduce_to_caterpillar", 0.0),
            "transforms.switch_certs": calls.get("switch_certificate", 0),
            "transforms.switch_s": self_s.get("switch_certificate", 0.0),
            "transforms.spiral_s": sum(self_s.get(name, 0.0) for name in SPIRAL_NAMES),
            "cli.calls": calls.get("main", 0),
            "cli.self_s": self_s.get("main", 0.0),
        }

    def write(self, path) -> None:
        """All spans of the pass as columns: name, parent, start, end, failed."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "parent", "start_s", "end_s", "failed"],
                "spans": [
                    [self.names[i], self.parents[i], round(self.starts[i] - t0, 7),
                     round(self.ends[i] - t0, 7), self.failed[i]]
                    for i in range(len(self.names))
                ],
            }, handle, separators=(",", ":"))
