"""Outside-in tracer for the benchmark's traced run.

``Tracer.install`` wraps library functions under every name a caller looks
them up by: each binding in ``symsearch`` and its submodules that holds the
function (modules come from ``sys.modules``, because the package attribute
``symsearch.materialize`` is the function, not the module), and each class
that defines a traced method.  ``uninstall`` puts every original back.

A wrapper keeps one span per call in memory: name, start, end, parent and
trial id.  A call made directly inside a span of the same name (recursion,
or ``materialize`` calling ``materialize_prepared``) is counted but gets no
span of its own.  The wrappers' own bookkeeping, and time spent paused (the
benchmark's output checks), is measured and subtracted from the spans that
enclose it.  Span names are ``<layer>.<operation>``; a layer's self time is
the time its spans do not spend in child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

CLOCK = time.perf_counter_ns

# Fields of an open span record.
NAME, START, END, PARENT, TAG, CHILD, BOOK, OVH, ID = range(9)
# Span tags: a trial index >= 0, or one of these.
SETUP, COLLECT = -1, -2

# (span name, module, function, modules whose own binding stays unwrapped
# because the function calls itself through it).
FUNCTIONS = [
    ("cli.main", "symsearch.cli", "main", ()),
    ("flows.driver", "symsearch.flows", "run_joint", ()),
    ("flows.driver", "symsearch.flows", "run_separate", ()),
    ("flows.driver", "symsearch.flows", "run_factorized", ()),
    ("flows.driver", "symsearch.flows", "run_hybrid", ()),
    ("algorithms.mutate", "symsearch.algorithms", "mutate", ()),
    ("decisions.extract", "symsearch.decisions", "abstract_search_space", ()),
    ("decisions.encode", "symsearch.decisions", "encode_dna", ()),
    ("decisions.validate_dna", "symsearch.decisions", "validate_dna", ()),
    ("decisions.random_dna", "symsearch.decisions", "random_dna", ()),
    ("decisions.merge", "symsearch.decisions", "merge_dna", ()),
    ("materialize.full", "symsearch.materialize", "materialize", ()),
    ("materialize.full", "symsearch.materialize", "materialize_prepared", ()),
    ("materialize.partial", "symsearch.materialize", "materialize_partial", ()),
    ("materialize.partial", "symsearch.materialize", "materialize_partial_prepared", ()),
    ("materialize.infer_dna", "symsearch.materialize", "infer_dna", ()),
    ("oracles.eval", "symsearch.oracles", "eval_oracle", ()),
    ("oracles.build_space", "symsearch.oracles", "build_nasbench_space", ()),
    ("values.clone", "symsearch.values", "clone", ("symsearch.values",)),
    ("values.validate_tree", "symsearch.values", "validate_tree", ()),
    ("values.rebind", "symsearch.values", "rebind", ()),
    ("values.query", "symsearch.values", "query", ()),
    ("values.equal", "symsearch.values", "equal", ("symsearch.values",)),
    ("serialization.serialize", "symsearch.serialization", "serialize", ()),
    ("serialization.deserialize", "symsearch.serialization", "deserialize", ()),
    ("hyper.space_size", "symsearch.hyper", "space_size", ()),
    ("eager.run", "symsearch.eager", "run_eager", ()),
    ("eager.oneof", "symsearch.eager", "eager_oneof", ()),
    ("eager.intv", "symsearch.eager", "eager_intv", ()),
    ("eager.floatv", "symsearch.eager", "eager_floatv", ()),
]
# Materialize's calls into the values layer are charged to materialize.
SITE_NAMES = {
    ("symsearch.materialize", "values.clone"): "materialize.clone",
    ("symsearch.materialize", "values.validate_tree"): "materialize.validate_tree",
}
# (span name, module, class, method); subclasses that override the method
# are wrapped too.
METHODS = [
    ("flows.log_write", "symsearch.flows", "FlowReport", "write_jsonl"),
    ("flows.log_write", "symsearch.flows", "FlowReport", "write_summary"),
    ("algorithms.setup", "symsearch.algorithms", "SearchAlgorithm", "setup"),
    ("algorithms.propose", "symsearch.algorithms", "SearchAlgorithm", "propose"),
    ("algorithms.feedback", "symsearch.algorithms", "SearchAlgorithm", "feedback"),
    ("schema.check", "symsearch.schema", "ValueSpec", "check"),
]
# A span of one of these names ending in a trial closes that trial.
TRIAL_ENDS = {"bench.reward", "bench.program", "oracles.eval"}
EAGER_CALLS = ("eager.oneof", "eager.intv", "eager.floatv")
LAYERS = ("bench", "cli", "flows", "algorithms", "decisions", "materialize", "oracles",
          "schema", "values", "serialization", "hyper", "eager")


def _rebind_name(args, kwargs):
    edits = args[1] if len(args) > 1 else kwargs.get("edits")
    transform = callable(edits) and not isinstance(edits, dict)
    return "values.rebind_transform" if transform else "values.rebind_edits"


def count_nodes(node) -> int:
    return 1 + sum(count_nodes(child) for _, child in node.child_items())


class Tracer:
    def __init__(self):
        self.active = False
        self.collecting = False
        self.phase = "run"
        self.trial = 0
        self.tag = 0
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [spans, inclusive ns, self ns]
        self.counts = Counter()      # calls inside trials, recursion included
        self.counts_all = Counter()  # every call
        self.layer_self = Counter()  # self ns per layer outside set-up
        self.round_ns = 0
        self.proposals = 0
        self.distinct_proposals = 0
        self.mutations = 0
        self.noop_mutations = 0
        self.cloned_nodes = 0
        self.kept_nodes = 0
        self.patched: list[tuple[str, str]] = []
        self.missing: list[str] = []
        self._seen: dict[int, tuple] = {}
        self._clone_sizes: dict[int, tuple] = {}
        self._saved: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.patched, self.missing = [], []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "symsearch" or n.startswith("symsearch."))]
        for span, module_name, attr, internal in FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if not inspect.isfunction(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            for site in modules:
                if site.__name__ in internal:
                    continue
                for key, value in list(vars(site).items()):
                    if value is fn:
                        name = SITE_NAMES.get((site.__name__, span), span)
                        self._patch(site, key, fn, name)
        for span, module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            if cls is None:
                self.missing.append(f"{module_name}.{class_name}")
                continue
            for klass in [cls, *_subclasses(cls)]:
                fn = vars(klass).get(method)
                if inspect.isfunction(fn):
                    self._patch(klass, method, fn, span)
        eager = importlib.import_module("symsearch.eager")
        context = getattr(eager, "EagerContext", None)
        for method, collecting in (("begin_collect", True), ("begin_apply", False)):
            fn = getattr(context, method, None)
            if inspect.isfunction(fn):
                self._saved.append((context, method, fn))
                setattr(context, method, self._mode_hook(fn, collecting))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _patch(self, owner, key, fn, name) -> None:
        self._saved.append((owner, key, fn))
        self.patched.append((getattr(owner, "__name__", repr(owner)), key))
        setattr(owner, key, self._wrapper(fn, _rebind_name if name == "values.rebind" else name,
                                          POST.get(name)))

    def _mode_hook(self, fn, collecting):
        tracer = self

        def hooked(*args, **kwargs):
            tracer.collecting = collecting
            tracer._retag()
            return fn(*args, **kwargs)

        return hooked

    def wrap_bench(self, fn, name: str):
        """A span around the benchmark's own `fn`; the eager program's
        collection pass is named ``eager.collect``."""
        if name == "bench.program":
            return self._wrapper(fn, lambda a, k: "eager.collect" if self.collecting
                                 else "bench.program", None)
        return self._wrapper(fn, name, None)

    # -- spans ---------------------------------------------------------------

    def _wrapper(self, fn, name, post):
        tracer = self
        stack = self._stack
        dynamic = callable(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = CLOCK()
            span = name(args, kwargs) if dynamic else name
            parent = stack[-1]
            tag = tracer.tag
            tracer.counts_all[span] += 1
            if tag >= 0:
                tracer.counts[span] += 1
            if parent[NAME] == span:
                book = CLOCK() - t0
                parent[BOOK] += book
                parent[OVH] += book
                return fn(*args, **kwargs)
            tracer._next_id += 1
            rec = [span, 0, 0, parent[ID], tag, 0, 0, 0, tracer._next_id]
            stack.append(rec)
            rec[START] = start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = CLOCK()
                stack.pop()
                tracer._close(rec, parent)
            if post is not None and tag >= 0:
                post(tracer, args, result)
            book = start - t0 + CLOCK() - end
            parent[BOOK] += book
            parent[OVH] += book
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, rec, parent) -> None:
        name = rec[NAME]
        duration = rec[END] - rec[START]
        self_ns = duration - rec[CHILD] - rec[BOOK]
        parent[CHILD] += duration
        parent[OVH] += rec[OVH]
        stat = self.stats.setdefault(name, [0, 0, 0])
        stat[0] += 1
        stat[1] += duration - rec[OVH]
        stat[2] += self_ns
        if rec[TAG] != SETUP:
            self.layer_self[name.split(".", 1)[0]] += self_ns
        if self.keep_spans:
            self.spans.append((rec[ID], name, rec[START], rec[END], rec[PARENT], rec[TAG]))
        if name in TRIAL_ENDS and rec[TAG] >= 0:
            self.trial += 1
            self._retag()

    def _retag(self) -> None:
        if self.phase != "run":
            self.tag = SETUP
        else:
            self.tag = COLLECT if self.collecting else self.trial

    @contextlib.contextmanager
    def traced(self, phase: str = "run"):
        """Record spans of the enclosed block under one root span."""
        self.phase = phase
        self._retag()
        self._next_id += 1
        root = ["bench." + phase, 0, 0, 0, self.tag, 0, 0, 0, self._next_id]
        self._stack.append(root)
        self.active = True
        root[START] = CLOCK()
        try:
            yield
        finally:
            root[END] = CLOCK()
            self.active = False
            self._stack.pop()
            self._close(root, [None, 0, 0, 0, 0, 0, 0, 0, 0])
            if phase == "run":
                self.round_ns += root[END] - root[START] - root[OVH]
            self.phase = "run"
            self._retag()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside; the paused time is charged to no span."""
        if not self.active:
            yield
            return
        self.active = False
        start = CLOCK()
        try:
            yield
        finally:
            book = CLOCK() - start
            self.active = True
            top = self._stack[-1]
            top[BOOK] += book
            top[OVH] += book

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, tag in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "trial": tag}))
                handle.write("\n")

    # -- metrics ---------------------------------------------------------------

    def _sum(self, names, field) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[field] for n in names)

    def _per_call_us(self, *names, field=1) -> float:
        calls = self._sum(names, 0)
        return self._sum(names, field) / calls / 1e3 if calls else 0.0

    def _per_trial(self, *names) -> float:
        return sum(self.counts[n] for n in names) / self.trial if self.trial else 0.0

    def _per_trial_us(self, *names, field=1) -> float:
        return self._sum(names, field) / self.trial / 1e3 if self.trial else 0.0

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        eager_calls = sum(self.counts_all[n] for n in EAGER_CALLS)
        values = {
            "cli.self_ms": self._per_call_us("cli.main", field=2) / 1e3,
            "flows.driver_ms": self._per_call_us("flows.driver") / 1e3,
            "flows.trial_self_us": self._per_trial_us("flows.driver", field=2),
            "flows.log_write_us_per_trial": self._per_trial_us("flows.log_write"),
            "algorithms.propose_us": self._per_call_us("algorithms.propose"),
            "algorithms.feedback_us": self._per_call_us("algorithms.feedback"),
            "algorithms.mutate_us": self._per_call_us("algorithms.mutate"),
            "algorithms.setup_us": self._per_call_us("algorithms.setup"),
            "algorithms.setup_per_trial": self._per_trial("algorithms.setup"),
            "algorithms.unique_proposal_ratio": _ratio(self.distinct_proposals, self.proposals),
            "algorithms.noop_mutation_ratio": _ratio(self.noop_mutations, self.mutations),
            "decisions.extract_us": self._per_call_us("decisions.extract"),
            "decisions.encode_us": self._per_call_us("decisions.encode"),
            "decisions.validate_dna_us": self._per_call_us("decisions.validate_dna"),
            "decisions.random_dna_us": self._per_call_us("decisions.random_dna"),
            "decisions.merge_us": self._per_call_us("decisions.merge"),
            "decisions.extract_per_trial": self._per_trial("decisions.extract"),
            "decisions.encode_per_trial": self._per_trial("decisions.encode"),
            "decisions.validate_per_trial": self._per_trial("decisions.validate_dna"),
            "materialize.full_us": self._per_call_us("materialize.full"),
            "materialize.partial_us": self._per_call_us("materialize.partial"),
            "materialize.self_us": self._per_call_us("materialize.full", "materialize.partial",
                                                     field=2),
            "materialize.clone_us": self._per_call_us("materialize.clone"),
            "materialize.validate_tree_us": self._per_call_us("materialize.validate_tree"),
            "materialize.infer_dna_us": self._per_call_us("materialize.infer_dna"),
            "materialize.kept_node_ratio": _ratio(self.kept_nodes, self.cloned_nodes),
            "oracles.eval_us": self._per_call_us("oracles.eval"),
            "schema.check_us": self._per_call_us("schema.check"),
            "schema.check_per_trial": self._per_trial("schema.check"),
            "values.clone_us": self._per_call_us("values.clone"),
            "values.rebind_edits_us": self._per_call_us("values.rebind_edits"),
            "values.rebind_transform_us": self._per_call_us("values.rebind_transform"),
            "values.query_us": self._per_call_us("values.query"),
            "values.equal_us": self._per_call_us("values.equal"),
            "values.validate_tree_us": self._per_call_us("values.validate_tree"),
            "serialization.serialize_us": self._per_call_us("serialization.serialize"),
            "serialization.deserialize_us": self._per_call_us("serialization.deserialize"),
            "hyper.space_size_us": self._per_call_us("hyper.space_size"),
            "eager.collect_ms": self._per_call_us("eager.collect") / 1e3,
            "eager.call_us": (self._sum(EAGER_CALLS, 2) / eager_calls / 1e3
                              if eager_calls else 0.0),
            "eager.calls_per_trial": self._per_trial(*EAGER_CALLS),
            "eager.loop_self_us": self._per_trial_us("eager.run", field=2),
        }
        for layer in LAYERS:
            values[f"{layer}.self_share"] = _ratio(self.layer_self[layer], self.round_ns)
        values["trace.overhead_ratio"] = overhead_ratio
        return values


HIGHER_IS_BETTER = {"algorithms.unique_proposal_ratio", "materialize.kept_node_ratio"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in Tracer().metrics(1.0):
        if name.endswith(("_us", "_us_per_trial")):
            unit = "us"
        elif name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_per_trial"):
            unit = "count"
        else:
            unit = "ratio"
        specs.append((name, unit, "higher" if name in HIGHER_IS_BETTER else "lower"))
    return specs


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- counters taken after a span, inside trials only ---------------------------

def _after_propose(tracer, args, dna):
    seen = tracer._seen.setdefault(id(args[0]), (args[0], set()))[1]
    key = repr(dna)
    tracer.proposals += 1
    if key not in seen:
        seen.add(key)
        tracer.distinct_proposals += 1


def _after_mutate(tracer, args, dna):
    tracer.mutations += 1
    if dna is args[0] or dna == args[0]:
        tracer.noop_mutations += 1


def _after_clone(tracer, args, tree):
    # Keyed by the source tree, which is kept alive so its id stays unique.
    entry = tracer._clone_sizes.get(id(args[0]))
    if entry is None:
        entry = tracer._clone_sizes[id(args[0])] = (args[0], count_nodes(tree))
    tracer.cloned_nodes += entry[1]


def _after_materialize(tracer, args, child):
    tracer.kept_nodes += count_nodes(child)


POST = {
    "algorithms.propose": _after_propose,
    "algorithms.mutate": _after_mutate,
    "materialize.clone": _after_clone,
    "materialize.full": _after_materialize,
    "materialize.partial": _after_materialize,
}
