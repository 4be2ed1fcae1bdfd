"""The four workloads of the symsearch benchmark.

Every workload turns a seed into inputs (``setup``) and then runs rounds of
operations on them (``run_round``).  All rounds over the same inputs do the
same work.  Every operation's output is checked, against a value pinned in
``pins.json`` and against invariants that hold for any correct program, so a
faster program that behaves differently shows up as failed operations.

Inputs come from a pool of ``POOL`` pinned variants; the seed picks which
variants a run uses, so any seed can be checked against pins.

The workloads call the library only through the names a user would:
``symsearch.<name>`` package attributes and ``symsearch.cli.main``.  The
tracer (``tracer.py``) wraps exactly those names, among others.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import sys
import time
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

sys.path.insert(0, str(SRC))
import symsearch as ss  # noqa: E402

if Path(ss.__file__).resolve().parent != SRC / "symsearch":
    raise ImportError(f"symsearch must come from {SRC}, not {ss.__file__}")

CLOCK = time.perf_counter_ns
POOL = 32  # pinned input variants per workload
MAX_FAILURE_NOTES = 20


def pool_indices(seed: int, count: int) -> list[int]:
    """The pool variants a seed selects, in run order."""
    return random.Random(seed).sample(range(POOL), count)


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def records_digest(report) -> str:
    """SHA-256 of a flow report's trial records in the JSONL log format."""
    return sha("\n".join(json.dumps(r.to_json_obj(), separators=(",", ":"))
                         for r in report.records))


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value):
        self.value = value
        self.children = []


def _total(node) -> int:
    return node.value + sum(_total(child) for child in node.children)


def _add(a, b):
    return a + b


def reference() -> int:
    """A fixed pure-Python computation that never calls the library: object
    allocation, attribute access, recursion, dict work and plain calls, with
    the garbage collector paused so the size of the run's heap does not
    matter.  Its time tracks the host's current speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        nodes = [_Node(0)]
        for i in range(1, 1000):
            node = _Node(i)
            nodes[(i - 1) // 3].children.append(node)
            nodes.append(node)
        counts = {}
        for i in range(2000):
            key = str(i % 311)
            counts[key] = counts.get(key, 0) + i
        acc = 0
        for i in range(10000):
            acc = _add(acc, i & 7)
        return _total(nodes[0]) + len(counts) + acc
    finally:
        if enabled:
            gc.enable()


def reference_ns() -> int:
    start = CLOCK()
    reference()
    return CLOCK() - start


class Run:
    """Measurements, output checks and tracing hooks of one run.

    ``ops`` counts trials (oracle calls) on the search workloads and tree
    operations on ``tree-edit``; ``op_ns`` holds one latency per operation and
    ``call_ns`` one per top-level call; ``job_ns`` is their measured total.
    With ``record`` set, ``expect`` stores outputs as pins instead of
    comparing them.

    With ``normalize`` set, ``reference`` is timed between calls at most
    every ``BLOCK_NS``, and every sample of a block is also kept scaled by
    ``REFERENCE_NS`` over the mean reference time at the block's two ends
    (``norm_op_ns``, ``norm_call_ns``, ``norm_job_ns``): the time the block
    would have taken on a host where the reference takes ``REFERENCE_NS``.
    A shared host can change speed by 10-35% within seconds (measured on a
    2-vCPU Xeon VM); the scaling cancels that drift.
    """

    BLOCK_NS = 100_000_000
    REFERENCE_NS = 3_000_000

    def __init__(self, pins: dict, tracer=None, record: bool = False,
                 normalize: bool = False):
        self.pins = pins
        self.tracer = tracer
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops = 0
        self.op_ns: list[int] = []
        self.call_ns: list[int] = []
        self.job_ns = 0
        self._last = None
        self._skip = 0
        self.normalize = normalize
        self.norm_op_ns: list[float] = []
        self.norm_call_ns: list[float] = []
        self.norm_job_ns = 0.0
        self.reference_ns: list[int] = []
        if normalize:
            self.reference_ns.append(reference_ns())
            self._block = (CLOCK(), 0, 0, 0)

    # -- tracing hooks -----------------------------------------------------

    def wrap(self, fn, name: str):
        """`fn` as a span of the benchmark's own layer when tracing."""
        return fn if self.tracer is None else self.tracer.wrap_bench(fn, name)

    def checking(self):
        """Context for output checks: the tracer records nothing inside."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.paused()

    # -- timing ------------------------------------------------------------

    def start_job(self, skip: int = 0) -> None:
        """Start a search; its first `skip` reward calls are not trials."""
        self._last = None
        self._skip = skip

    def tick(self) -> None:
        """Called at the start of every reward call: records the interval
        since the previous one in the same search."""
        now = CLOCK()
        if self._skip:
            self._skip -= 1
            return
        if self._last is not None:
            self.op_ns.append(now - self._last)
        self._last = now

    def add_call(self, ns: int) -> None:
        """Record a finished top-level call, after its operations."""
        self.call_ns.append(ns)
        self.job_ns += ns
        if self.normalize and CLOCK() - self._block[0] >= self.BLOCK_NS:
            self.close_block()

    def close_block(self) -> None:
        """Scale the samples taken since the last reference."""
        if not self.normalize:
            return
        _, ops, calls, job_ns = self._block
        self.reference_ns.append(reference_ns())
        factor = self.REFERENCE_NS / ((self.reference_ns[-2] + self.reference_ns[-1]) / 2)
        self.norm_op_ns.extend(ns * factor for ns in self.op_ns[ops:])
        self.norm_call_ns.extend(ns * factor for ns in self.call_ns[calls:])
        self.norm_job_ns += (self.job_ns - job_ns) * factor
        self._block = (CLOCK(), len(self.op_ns), len(self.call_ns), self.job_ns)

    # -- checks --------------------------------------------------------------

    def expect(self, workload: str, key: str, observed) -> bool:
        """Whether `observed` equals the pinned output for `key`."""
        if self.record:
            self.pins.setdefault(workload, {})[key] = observed
            return True
        return self.pins.get(workload, {}).get(key) == observed

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(what)

    def job(self, what: str, fn) -> None:
        """Run one checked operation; an exception counts as a failure."""
        note = "output mismatch"
        try:
            ok = fn()
        except Exception as exc:  # the run goes on and reports the failure
            ok = False
            note = f"{type(exc).__name__}: {exc}"
        self.outcome(ok, f"{what}: {note}")


# ---------------------------------------------------------------------------
# nas-cli: the CLI's search command on the builtin nasbench space
# ---------------------------------------------------------------------------

class NasCli:
    """Cycles ``symsearch search`` in-process over a fixed flow mix on
    ``--builtin nasbench --nodes 5 --ops 3`` with the synthetic oracle."""

    name = "nas-cli"
    variants_per_round = 3
    configs = {
        "joint-regevo": ["--flow", "joint", "--algo", "regevo", "--trials", "200"],
        "joint-random": ["--flow", "joint", "--algo", "random", "--trials", "200"],
        "factorized-top5": ["--flow", "factorized", "--partition", "op", "--trials", "10",
                            "--inner-trials", "20", "--aggregator", "top5",
                            "--population", "5", "--tournament", "2"],
        "hybrid": ["--flow", "hybrid", "--partition", "op", "--trials", "8",
                   "--inner-trials", "20", "--phase2-trials", "40",
                   "--population", "5", "--tournament", "2"],
        "separate": ["--flow", "separate", "--partition", "op", "--trials", "100",
                     "--phase2-trials", "100"],
    }

    def setup(self, seed: int, tmp: Path) -> dict:
        return self.prepare(pool_indices(seed, self.variants_per_round), tmp)

    def prepare(self, indices, tmp: Path) -> dict:
        importlib.import_module("symsearch.cli")
        jobs = []
        for index in indices:
            for config, flags in self.configs.items():
                log = tmp / f"{config}-{index}.jsonl"
                argv = ["search", "--builtin", "nasbench", "--nodes", "5", "--ops", "3",
                        "--oracle", "synthetic", "--oracle-seed", str(index),
                        "--seed", str(index), *flags, "--out", str(log)]
                jobs.append((f"{config}/{index}", argv, log, log.with_suffix(".summary.json")))
        return {"jobs": jobs}

    def run_round(self, inputs: dict, run: Run) -> None:
        cli = sys.modules["symsearch.cli"]
        for key, argv, log, summary in inputs["jobs"]:
            run.job(f"nas-cli {key}", lambda: self._search(run, cli, key, argv, log, summary))

    def _search(self, run, cli, key, argv, log, summary) -> bool:
        with run.checking():
            log.unlink(missing_ok=True)
            summary.unlink(missing_ok=True)
        sink = io.StringIO()
        start = CLOCK()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        elapsed = CLOCK() - start
        with run.checking():
            summary_bytes = summary.read_bytes() if code == 0 else b"{}"
            calls = json.loads(summary_bytes).get("oracle_calls", 0)
            observed = [sha(log.read_bytes()), sha(summary_bytes)] if code == 0 else None
            ok = calls > 0 and run.expect(self.name, key, observed)
        # The CLI exposes no per-trial hook, so a search's trials each get
        # its mean trial time.
        run.ops += calls
        run.op_ns.extend([elapsed / calls] * calls if calls else [])
        run.add_call(elapsed)
        return ok


# ---------------------------------------------------------------------------
# The typed conditional space shared by typed-space, eager-program, tree-edit
# ---------------------------------------------------------------------------

SLOTS = 16
FILTER_CHOICES = (8, 16, 24, 32, 48, 64, 96, 128)
SKIP_TRIPLES = list(combinations(range(SLOTS), 3))
IDENTITY = ("Identity",)


def space_params(index: int) -> dict:
    """The value ranges of pool variant `index`; the structure never varies."""
    rng = random.Random(index)
    units_lo = rng.choice((16, 32, 64))
    lr_lo = rng.choice((1e-4, 3e-4, 1e-3))
    return {
        "filters": sorted(rng.sample(FILTER_CHOICES, 3)),
        "units": (units_lo, units_lo * rng.choice((4, 8))),
        "lr": (lr_lo, lr_lo * 10),
    }


def build_types():
    """A fresh registry with the Trainer/Sequential/Conv/Dense/Identity/Adam
    types; returns (registry, {name: handle})."""
    schema = importlib.import_module("symsearch.schema")
    registry = ss.TypeRegistry()
    defs = [
        ss.TypeDef("Conv", [ss.Param("filters", schema.Int(min=1)),
                            ss.Param("kernel_size", schema.Int(min=1, max=7))]),
        ss.TypeDef("Dense", [ss.Param("units", schema.Int(min=1))]),
        ss.TypeDef("Identity", []),
        ss.TypeDef("Sequential", [ss.Param("children", schema.ListOf(schema.ObjectOf()))]),
        ss.TypeDef("Adam", [ss.Param("learning_rate", schema.Float(min=0.0, max=1.0))]),
        ss.TypeDef("Trainer", [
            ss.Param("model", schema.ObjectOf("Sequential")),
            ss.Param("optimizer", schema.ObjectOf("Adam")),
            ss.Param("skips", schema.ListOf(schema.Int(min=0, max=SLOTS - 1),
                                            min_len=3, max_len=3)),
        ]),
    ]
    return registry, {d.type_name: registry.register(d) for d in defs}


def build_space(types: dict, params: dict):
    """Trainer(model=Sequential(16 x oneof([Conv, Dense, Identity])),
    optimizer=Adam(floatv), skips=manyof(3, range(16), distinct, sorted))."""
    filters = params["filters"]
    units_lo, units_hi = params["units"]

    def slot():
        return ss.oneof([
            types["Conv"](filters=ss.oneof(filters), kernel_size=ss.intv(1, 7)),
            types["Dense"](units=ss.intv(units_lo, units_hi)),
            types["Identity"](),
        ], hints="op")

    return types["Trainer"](
        model=types["Sequential"](children=[slot() for _ in range(SLOTS)]),
        optimizer=types["Adam"](learning_rate=ss.floatv(*params["lr"])),
        skips=ss.manyof(3, list(range(SLOTS)), distinct=True, sorted=True),
    )


def model_size(params: dict) -> int:
    """Independent count of the model's distinct programs."""
    units_lo, units_hi = params["units"]
    per_slot = len(params["filters"]) * 7 + (units_hi - units_lo + 1) + 1
    return per_slot ** SLOTS


def count_points(points) -> int:
    return sum(1 + sum(count_points(sub) for sub in getattr(p, "subspaces", ()))
               for p in points)


def score(layers, lr: float, skips) -> float:
    """Deterministic reward of one architecture.  `layers` holds
    ("Conv", filters, kernel) / ("Dense", units) / ("Identity",) tuples."""
    total = 0.0
    for i, layer in enumerate(layers):
        kind = layer[0]
        if kind == "Conv":
            total += 0.6 + 0.05 * math.log2(layer[1]) - 0.02 * abs(layer[2] - 3 - i % 3)
        elif kind == "Dense":
            total += 0.3 + 0.01 * i * math.log2(layer[1]) / SLOTS
        else:
            total += 0.2 * (i % 2)
    spread = sum(1 for a, b in zip(skips, skips[1:]) if b - a >= 4)
    return total / SLOTS - 0.1 * abs(math.log10(lr) + 3.2) + 0.05 * spread


def child_score(child) -> float:
    """`score` of a materialized Trainer, read by walking the child."""
    layers = []
    for layer in child["model"]["children"]:
        kind = layer.type_name
        if kind == "Conv":
            layers.append(("Conv", layer["filters"].value, layer["kernel_size"].value))
        elif kind == "Dense":
            layers.append(("Dense", layer["units"].value))
        else:
            layers.append(IDENTITY)
    skips = [node.value for node in child["skips"]]
    return score(layers, child["optimizer"]["learning_rate"].value, skips)


def _typed_variants(indices) -> list[dict]:
    registry, types = build_types()
    variants = []
    for index in indices:
        params = space_params(index)
        space = build_space(types, params)
        spec = ss.abstract_search_space(space)
        if count_points(spec.points) != 2 + 4 * SLOTS:
            raise RuntimeError(f"variant {index}: wrong decision point count")
        if ss.space_size(space["model"]) != model_size(params):
            raise RuntimeError(f"variant {index}: space_size disagrees with the count")
        variants.append({"index": index, "space": space, "spec": spec,
                         "registry": registry, "types": types})
    return variants


# ---------------------------------------------------------------------------
# typed-space: library flows over the typed conditional space
# ---------------------------------------------------------------------------

class TypedSpace:
    """``run_joint`` (RegularizedEvolution) and ``run_factorized`` (partition
    on hint ``op``) over the typed space; the reward walks each child."""

    name = "typed-space"
    variants_per_round = 24
    # Joint trials cost about twice a factorized inner trial; with one third
    # of the trials joint, p50 and p90 fall inside a mode, not between two.
    budgets = {"joint": 40, "factorized": 80}

    def setup(self, seed: int, tmp: Path) -> dict:
        return self.prepare(pool_indices(seed, self.variants_per_round), tmp)

    def prepare(self, indices, tmp: Path) -> dict:
        return {"variants": _typed_variants(indices)}

    def run_round(self, inputs: dict, run: Run) -> None:
        def reward(child, dna):
            run.tick()
            return child_score(child)

        reward = run.wrap(reward, "bench.reward")
        for v in inputs["variants"]:
            index = v["index"]
            run.job(f"typed-space joint/{index}",
                    lambda: self._search(run, "joint", index, lambda: ss.run_joint(
                        v["space"], ss.RegularizedEvolution(16, 4, seed=index),
                        reward, self.budgets["joint"], seed=index)))
            run.job(f"typed-space factorized/{index}",
                    lambda: self._search(run, "factorized", index, lambda: ss.run_factorized(
                        v["space"], lambda point: point.hints == "op",
                        ss.SearchLoop(lambda s: ss.RegularizedEvolution(3, 2, seed=s), 4, seed=index),
                        ss.SearchLoop(lambda s: ss.RegularizedEvolution(5, 2, seed=s), 20, seed=index),
                        reward)))

    def _search(self, run, flow, index, search) -> bool:
        run.start_job()
        start = CLOCK()
        report = search()
        elapsed = CLOCK() - start
        run.ops += report.oracle_calls
        run.add_call(elapsed)
        with run.checking():
            observed = [report.best_dna, repr(report.best_reward), records_digest(report)]
            return (report.oracle_calls == self.budgets[flow]
                    and run.expect(self.name, f"{flow}/{index}", observed))


# ---------------------------------------------------------------------------
# eager-program: the same decisions, define-by-run
# ---------------------------------------------------------------------------

class EagerProgram:
    """``run_eager`` (RegularizedEvolution) over a define-by-run program with
    the typed space's decision structure: thunk branches per slot, an
    ``eager_floatv`` learning rate and a 560-way choice of skip triples."""

    name = "eager-program"
    variants_per_round = 12
    trials = 200

    def setup(self, seed: int, tmp: Path) -> dict:
        return self.prepare(pool_indices(seed, self.variants_per_round), tmp)

    def prepare(self, indices, tmp: Path) -> dict:
        return {"variants": [(index, space_params(index)) for index in indices]}

    def run_round(self, inputs: dict, run: Run) -> None:
        for index, params in inputs["variants"]:
            program = run.wrap(self._program(params, run), "bench.program")
            run.job(f"eager-program {index}", lambda: self._search(run, index, program))

    @staticmethod
    def _program(params: dict, run: Run):
        filters = params["filters"]
        units_lo, units_hi = params["units"]
        lr_lo, lr_hi = params["lr"]

        def conv():
            return ("Conv", ss.eager_oneof(filters), ss.eager_intv(1, 7))

        def dense():
            return ("Dense", ss.eager_intv(units_lo, units_hi))

        branches = [conv, dense, IDENTITY]

        def program():
            run.tick()
            layers = [ss.eager_oneof(branches, hints="op") for _ in range(SLOTS)]
            lr = ss.eager_floatv(lr_lo, lr_hi)
            return score(layers, lr, ss.eager_oneof(SKIP_TRIPLES))

        return program

    def _search(self, run, index, program) -> bool:
        run.start_job(skip=1)  # the first call is the collection pass
        start = CLOCK()
        report = ss.run_eager(program, ss.RegularizedEvolution(20, 5, seed=index),
                              self.trials, seed=index)
        elapsed = CLOCK() - start
        run.ops += report.oracle_calls
        run.add_call(elapsed)
        with run.checking():
            observed = [report.best_dna, repr(report.best_reward), records_digest(report)]
            return (report.oracle_calls == self.trials
                    and run.expect(self.name, str(index), observed))


# ---------------------------------------------------------------------------
# tree-edit: tree operations on children of the typed space, no search loop
# ---------------------------------------------------------------------------

QUERY_PATTERN = r"model\.children\[\d+\]\.(filters|units)"


def _hyperify(path, value, parent):
    return ss.oneof([8, 16, 32]) if path.endswith("filters") else value


class TreeEdit:
    """A fixed mix of writes (``rebind`` with Set/Insert/Delete edits and with
    a hyperifying transform) and reads (``query`` by regex and predicate,
    ``equal``, ``clone``, ``serialize``, ``deserialize``, ``infer_dna``) on
    materialized children of the typed space.  One session applies the mix
    to one child."""

    name = "tree-edit"
    variants_per_round = 16
    children_per_variant = 4

    def setup(self, seed: int, tmp: Path) -> dict:
        return self.prepare(pool_indices(seed, self.variants_per_round), tmp)

    def prepare(self, indices, tmp: Path) -> dict:
        sessions = []
        for v in _typed_variants(indices):
            types, registry = v["types"], v["registry"]
            for c in range(self.children_per_variant):
                rng = random.Random(v["index"] * 1000 + c)
                dna = ss.random_dna(v["spec"], rng)
                child = ss.materialize(v["space"], dna)
                text = ss.serialize(child)
                dense = types["Dense"]
                sessions.append({
                    "key": f"{v['index']}/{c}",
                    "space": v["space"], "spec": v["spec"], "registry": registry,
                    "child": child, "dna_text": ss.encode_dna(dna, v["spec"]),
                    "text": text, "twin": ss.deserialize(text, registry),
                    "set": {"optimizer.learning_rate": rng.uniform(1e-4, 1e-2),
                            f"model.children[{rng.randrange(SLOTS)}]":
                                ss.Set(dense(units=rng.randrange(16, 512)))},
                    "insert": {f"model.children[{rng.randrange(SLOTS + 1)}]":
                               ss.Insert(types["Identity"]())},
                    "delete": {f"model.children[{rng.randrange(SLOTS)}]": ss.DELETE},
                    "is_dense": dense.is_instance,
                })
        return {"sessions": sessions}

    def run_round(self, inputs: dict, run: Run) -> None:
        for s in inputs["sessions"]:
            first = len(run.op_ns)
            for op, call, check in self._ops(s):
                key = f"{s['key']}/{op}"
                run.job(f"tree-edit {key}", lambda: self._op(run, key, call, check))
            run.add_call(sum(run.op_ns[first:]))

    def _op(self, run, key, call, check) -> bool:
        start = CLOCK()
        result = call()
        run.op_ns.append(CLOCK() - start)
        run.ops += 1
        with run.checking():
            ok, fingerprint = check(result)
            return run.expect(self.name, key, fingerprint) and ok

    @staticmethod
    def _ops(s):
        child, text = s["child"], s["text"]

        def unchanged():
            return ss.serialize(child) == text

        def written(result):
            return unchanged(), sha(ss.serialize(result))[:16]

        def found(result):
            keys = list(result)
            return unchanged(), sha("\n".join(keys))[:16]

        return [
            ("rebind_set", lambda: ss.rebind(child, s["set"]), written),
            ("rebind_insert", lambda: ss.rebind(child, s["insert"]), written),
            ("rebind_delete", lambda: ss.rebind(child, s["delete"]), written),
            ("rebind_transform", lambda: ss.rebind(child, _hyperify), written),
            ("query_regex", lambda: ss.query(child, QUERY_PATTERN), found),
            ("query_predicate",
             lambda: ss.query(child, lambda path, value, parent: s["is_dense"](value)), found),
            ("equal", lambda: ss.equal(child, s["twin"]), lambda r: (r is True, str(r))),
            ("clone", lambda: ss.clone(child),
             lambda r: (r is not child and ss.serialize(r) == text, sha(ss.serialize(r))[:16])),
            ("serialize", lambda: ss.serialize(child), lambda r: (r == text, sha(r)[:16])),
            ("deserialize", lambda: ss.deserialize(text, s["registry"]),
             lambda r: (ss.equal(r, child), sha(ss.serialize(r))[:16])),
            ("infer_dna", lambda: ss.infer_dna(s["space"], child),
             lambda r: (ss.encode_dna(r, s["spec"]) == s["dna_text"],
                        sha(ss.encode_dna(r, s["spec"]))[:16])),
        ]


WORKLOADS = {w.name: w for w in (NasCli(), TypedSpace(), EagerProgram(), TreeEdit())}
