"""Command-line harness.

Subcommands:

* ``inspect``    print a space's decision spec as JSON plus its size
* ``enumerate``  stream canonical DNA texts of a finite space
* ``search``     run a seeded search flow and write a JSONL trial log
* ``dump-table`` tabulate the synthetic oracle into a table-oracle file

Spaces come from ``--space FILE`` (the symbolic JSON format; plain trees and
hyper values) or ``--builtin nasbench --nodes M --ops K``.  Exit codes:
0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import islice
from pathlib import Path

from .algorithms import Exhaustive, RandomSearch, RegularizedEvolution
from .decisions import abstract_search_space, encode_dna, enumerate_dnas, minimal_dna
from .errors import MalformedDocument, SymsearchError, UnsupportedSpace
from .flows import AGGREGATORS, SearchLoop, run_factorized, run_hybrid, run_joint, run_separate
from .hyper import INFINITE, space_size
from .materialize import infer_dna
from .oracles import SyntheticNASOracle, TableOracle, build_nasbench_space, dump_table, eval_oracle
from .serialization import deserialize, isomorphic, spec_to_json_obj


@cache  # built on the first call; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symsearch", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_space_flags(sub):
        sub.add_argument("--space", help="space file in the symbolic JSON format")
        sub.add_argument("--builtin", choices=["nasbench"], help="builtin space family")
        sub.add_argument("--nodes", type=int, default=3, help="builtin: node count (default 3)")
        sub.add_argument("--ops", type=int, default=3, help="builtin: ops per node (default 3)")

    sub = commands.add_parser("inspect", help="print decision spec and space size")
    add_space_flags(sub)
    sub.set_defaults(func=cmd_inspect)

    sub = commands.add_parser("enumerate", help="stream canonical DNAs of a finite space")
    add_space_flags(sub)
    sub.add_argument("--limit", type=int, help="stop after this many DNAs")
    sub.set_defaults(func=cmd_enumerate)

    sub = commands.add_parser("search", help="run a search flow")
    add_space_flags(sub)
    sub.add_argument("--oracle", choices=["synthetic", "table"], required=True)
    sub.add_argument("--oracle-seed", type=int, default=0, help="synthetic oracle seed")
    sub.add_argument("--table", help="table oracle file")
    sub.add_argument("--algo", choices=["random", "regevo", "exhaustive"], default="regevo")
    sub.add_argument("--flow", choices=["joint", "separate", "factorized", "hybrid"],
                     default="joint")
    sub.add_argument("--trials", type=int, required=True, help="trial budget (outer loop)")
    sub.add_argument("--inner-trials", type=int, help="inner loop budget (factorized/hybrid)")
    sub.add_argument("--phase2-trials", type=int,
                     help="second phase budget (hybrid/separate)")
    sub.add_argument("--partition", metavar="HINT",
                     help="optimize only points whose hints equal HINT")
    sub.add_argument("--population", type=int, default=25, help="regevo population size")
    sub.add_argument("--tournament", type=int, default=5, help="regevo tournament size")
    sub.add_argument("--aggregator", choices=sorted(AGGREGATORS), default="top5")
    sub.add_argument("--pivot", help="separate flow: pivot program file "
                                     "(default: the minimal materialization)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="trial log path (JSONL); a .summary.json "
                                   "file is written next to it")
    sub.add_argument("--repeat", type=int, default=1, help="independent seeded runs")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes for --repeat")
    sub.set_defaults(func=cmd_search)

    sub = commands.add_parser("dump-table", help="tabulate the synthetic oracle")
    add_space_flags(sub)
    sub.add_argument("--oracle-seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="table file to write")
    sub.set_defaults(func=cmd_dump_table)
    return parser


def load_space(args):
    """The space that ``--space`` or ``--builtin`` names; :func:`main` has
    checked that exactly one of them is given."""
    if args.builtin:
        return build_nasbench_space(args.nodes, args.ops)
    return load_document(args.space)


def load_document(path: str):
    """The symbolic JSON file at `path`; a refusal of its contents names the file."""
    try:
        return deserialize(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not UTF-8 text: {exc}") from None
    except SymsearchError as exc:
        raise MalformedDocument(f"{path}: {exc}") from None


def cmd_inspect(args, parser) -> int:
    space = load_space(args)
    size = space_size(space)
    doc = {
        "space_size": "infinite" if size == INFINITE else size,
        "decision_spec": spec_to_json_obj(abstract_search_space(space)),
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_enumerate(args, parser) -> int:
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be >= 0")
    space = load_space(args)
    spec = abstract_search_space(space)
    for dna in islice(enumerate_dnas(spec), args.limit):
        print(encode_dna(dna, spec))
    return 0


def cmd_dump_table(args, parser) -> int:
    if not args.builtin:
        parser.error("dump-table requires --builtin")
    space = build_nasbench_space(args.nodes, args.ops)
    oracle = SyntheticNASOracle(args.nodes, args.ops, args.oracle_seed)
    dump_table(space, oracle).save(args.out)
    return 0


def _check_search_flags(args, parser):
    if args.oracle == "synthetic" and not args.builtin:
        parser.error("--oracle synthetic requires --builtin nasbench")
    if args.oracle == "table" and not args.table:
        parser.error("--oracle table requires --table FILE")
    if args.flow != "joint" and not args.partition:
        parser.error(f"--flow {args.flow} requires --partition")
    if args.flow in ("factorized", "hybrid") and args.inner_trials is None:
        parser.error(f"--flow {args.flow} requires --inner-trials")
    if args.flow in ("hybrid", "separate") and args.phase2_trials is None:
        parser.error(f"--flow {args.flow} requires --phase2-trials")
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--inner-trials", args.inner_trials, 1),
                               ("--phase2-trials", args.phase2_trials, 0),
                               ("--population", args.population, 1),
                               ("--repeat", args.repeat, 1),
                               ("--jobs", args.jobs, 1)):
        if value is not None and value < least:
            parser.error(f"{flag} must be >= {least}")
    if not 1 <= args.tournament <= args.population:
        parser.error("--tournament must be between 1 and --population")


def _make_algorithm_factory(args):
    if args.algo == "random":
        return lambda seed: RandomSearch(seed=seed)
    if args.algo == "exhaustive":
        return lambda seed: Exhaustive(seed=seed)
    return lambda seed: RegularizedEvolution(
        population_size=args.population, tournament_size=args.tournament, seed=seed)


def run_search_once(args, run_index: int) -> dict:
    space = load_space(args)
    spec = abstract_search_space(space)
    seed = args.seed + run_index

    if args.oracle == "synthetic":
        oracle = SyntheticNASOracle(args.nodes, args.ops, args.oracle_seed)
    else:
        oracle = TableOracle.load(args.table)
        if not isomorphic(oracle.spec, spec):
            raise UnsupportedSpace(f"table {args.table} does not fit the search space: "
                                   "its decision spec differs")
    # The oracles read only the DNA, so the flows run over the spec and
    # build no child.
    reward_fn = lambda child, dna: eval_oracle(oracle, dna, spec)
    make = _make_algorithm_factory(args)
    selector = (lambda p: p.hints == args.partition) if args.partition else None
    aggregator = AGGREGATORS[args.aggregator]
    outer = SearchLoop(make, args.trials, seed=seed)
    inner = SearchLoop(make, args.inner_trials, seed=seed)

    if args.flow == "joint":
        report = run_joint(spec, make(seed), reward_fn, args.trials, seed=seed)
    elif args.flow == "factorized":
        report = run_factorized(spec, selector, outer, inner, reward_fn, aggregator=aggregator)
    elif args.flow == "hybrid":
        report = run_hybrid(spec, selector, outer, inner, args.phase2_trials, reward_fn,
                            aggregator=aggregator)
    else:
        if args.pivot:
            pivot = infer_dna(space, load_document(args.pivot))
        else:
            pivot = minimal_dna(spec)
        report = run_separate(spec, selector, pivot, outer,
                              SearchLoop(make, args.phase2_trials, seed=seed + 1), reward_fn)

    if args.out:
        out = Path(args.out)
        stem = out.stem if args.repeat == 1 else f"{out.stem}.{run_index}"
        report.write_jsonl(out.parent / (stem + out.suffix))
        report.write_summary(out.parent / (stem + ".summary.json"))
    summary = report.summary_dict()
    summary["run_index"] = run_index
    return summary


def cmd_search(args, parser) -> int:
    _check_search_flags(args, parser)
    if (workers := min(args.jobs, args.repeat)) == 1:  # a pool may start every worker at once
        summaries = [run_search_once(args, i) for i in range(args.repeat)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_search_once, args, i) for i in range(args.repeat)]
            summaries = [f.result() for f in futures]
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(args.space) == bool(args.builtin):  # every subcommand takes one space
        parser.error("exactly one of --space and --builtin is required")
    try:
        return args.func(args, parser)
    except (SymsearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
