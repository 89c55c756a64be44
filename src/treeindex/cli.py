"""Command-line front-end.

Subcommands:
  caterpillar   emit the unique semiregular caterpillar of a class
  mu            index, residual, and Perron vector of a tree file
  verify-min    enumerate a semiregular class and check that the
                caterpillar is its unique index minimizer
  search        exhaustive index minimization for a degree sequence
  reduce        branch-reduction trace of a semiregular tree, with the
                Rayleigh data of the certified inverse replay

Exit codes: 0 success/verified, 1 verification failure, 2 usage or input
error, including an --out path that cannot be written, a standard output
closed before the command wrote to it (which ends quietly), and an input
that nests past the interpreter's recursion limit.  All output is
deterministic for fixed arguments; machine formats carry floats at 17
significant digits, tables at 6.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .enumeration import (
    DEFAULT_MAX_N,
    _listing,
    _require_max_n,
    extremal_choice,
    find_minimizers,
)
from .spectral import ConvergenceError, _parent_indices, spectral_radius
from .transforms import (
    ReductionError,
    caterpillar_bound_witness,
    reduce_to_caterpillar,
)
from .trees import (
    DegreeSequence,
    Tree,
    TreeError,
    _degree_tokens,
    is_caterpillar,
    make_caterpillar,
    semiregular_degree,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# peak memory per vertex of building and printing a caterpillar, about
# 330 MB at n = 10**6 with CPython 3.11
CATERPILLAR_BYTES_PER_VERTEX = 300

# existing command lines pass --jobs, so it must keep parsing
JOBS_HELP = "accepted and ignored (the class scan is one batched solve)"


def _emit(text: str, out: str | None) -> None:
    """Write text, ended by one newline, to stdout or to the file out; both
    targets get the same bytes."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise TreeError(f"cannot write {out}: {exc}") from None


def _read_tree(path: str) -> Tree:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise TreeError(f"cannot read {path}: {exc}") from None
    return tree_from_json(text)


def _memory_bytes() -> int:
    """Physical memory of this machine, or sys.maxsize where it cannot be
    read."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def cmd_caterpillar(args: argparse.Namespace) -> int:
    need = args.n * CATERPILLAR_BYTES_PER_VERTEX
    if need > _memory_bytes():
        raise TreeError(f"--n {args.n} is too large: building it takes about {need:.3g} bytes, "
                        "more than the memory of this machine")
    try:
        t = make_caterpillar(args.d, args.n)
    except MemoryError:
        raise TreeError(f"--n {args.n} is too large: out of memory building it") from None
    if args.format == "dot":
        _emit(tree_to_dot(t), args.out)
    elif args.format == "table":
        k = (args.n - 2) // (args.d - 1)
        lines = [
            f"caterpillar d={args.d} n={args.n} (trunk {k})",
            "edges: " + " ".join(f"{u}-{v}" for u, v in t.edges()),
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(tree_to_json(t), args.out)
    return EXIT_OK


def cmd_mu(args: argparse.Namespace) -> int:
    t = _read_tree(args.tree)
    result = spectral_radius(t)
    if args.format == "table":
        lines = [
            f"mu         = {result.mu:.6g}",
            f"residual   = {result.residual:.6g}",
            f"iterations = {result.iterations}",
            "perron     = " + " ".join(f"{x:.6g}" for x in result.perron),
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(result.to_json(), args.out)
    return EXIT_OK


def cmd_verify_min(args: argparse.Namespace) -> int:
    _require_max_n(args.n, args.max_n)
    pi = DegreeSequence.semiregular(args.d, args.n)
    trees = _listing(pi, args.max_n)
    mus = _parent_indices(trees.parents())
    chosen = extremal_choice(trees, mus)
    # rows sort by the printed value, then by code, so no order rests on
    # the screen's last bits
    cats = trees.caterpillars()
    rows = sorted((float(f"{mu:.6f}"), code, cat) for mu, code, cat in zip(mus, trees.codes, cats))
    lines = [f"{'mu':>12}  caterpillar  canonical_code"]
    lines.extend(f"{mu:12.6f}  {str(cat):11}  {code}" for mu, code, cat in rows)
    # a d-semiregular class holds exactly one caterpillar
    verified = len(chosen) == 1 and cats[chosen[0]]
    lines.append(
        "VERIFIED: unique minimizer is the caterpillar"
        if verified
        else "FAILED: caterpillar is not the unique minimizer"
    )
    _emit("\n".join(lines), args.out)
    return EXIT_OK if verified else EXIT_VERIFICATION_FAILED


def cmd_search(args: argparse.Namespace) -> int:
    _require_max_n(sum(mult for _, mult in _degree_tokens(args.pi)), args.max_n)
    pi = DegreeSequence.parse(args.pi)
    report = find_minimizers(pi, max_n=args.max_n)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    elif args.format == "table":
        lines = [
            f"degree sequence : {report.pi.compact()}",
            f"trees examined  : {report.tree_count}",
            f"minimal index   : {report.min_mu:.6g}",
            f"minimizers      : {len(report.minimizers)}"
            + (" (unique)" if report.unique else " (tied)"),
            f"all caterpillars: {report.all_caterpillars}",
        ]
        if report.gap_to_runner_up is not None:
            lines.append(f"gap to runner-up: {report.gap_to_runner_up:.6g}")
        for code, obs in zip(report.minimizer_codes, report.observations):
            lines.append(
                f"  caterpillar={obs.is_caterpillar} buds_max={obs.buds_have_max_branch_degree} "
                f"trunk_monotone={obs.trunk_degrees_monotone}  {code.code}"
            )
        _emit("\n".join(lines), args.out)
    elif args.format == "dot":
        chunks = [tree_to_dot(t, name=f"M{i}") for i, t in enumerate(report.minimizers)]
        _emit("\n".join(chunks), args.out)
    else:
        _emit(report.to_json(), args.out)
    return EXIT_OK


def _reduction_json(rows) -> str:
    out = []
    for step, rec in rows:
        out.append(
            '{"kind":"%s","v_star":%d,"move":{"u1":%d,"v1":%d,"u2":%d,"v2":%d},'
            '"fork_size":%d,"rq_before":%s,"rq_after":%s}'
            % (
                step.kind,
                step.reduction_point,
                step.move.u1_pendant,
                step.move.v1,
                step.move.u2,
                step.move.v2,
                step.fork_size,
                "null" if rec is None else "%.17g" % rec.rq_before,
                "null" if rec is None else "%.17g" % rec.rq_after,
            )
        )
    return "[" + ",".join(out) + "]"


def cmd_reduce(args: argparse.Namespace) -> int:
    """Reduction steps of a semiregular tree.  Under "minimal" the steps and
    their Rayleigh data are those of the certified replay, read back in
    reduction order; under "any" the Rayleigh columns are null or blank."""
    t = _read_tree(args.tree)
    if semiregular_degree(t) is None and t.vertex_count > 2:
        raise TreeError("input tree is not semiregular: non-pendant degrees differ")
    if is_caterpillar(t):
        rows = []
    elif args.policy == "minimal":
        rows = [(r.step, r) for r in reversed(caterpillar_bound_witness(t).step_records)]
    else:
        rows = [(step, None) for step in reduce_to_caterpillar(t, policy=args.policy).steps]
    if args.format == "table":
        lines = [
            f"{'step':>4}  {'kind':<16}  {'v*':>3}  {'move':<22}  {'fork':>4}  "
            f"{'rq_before':>12}  {'rq_after':>12}"
        ]
        for idx, (step, rec) in enumerate(rows):
            move = f"({step.move.u1_pendant},{step.move.v1})<->({step.move.v2},{step.move.u2})"
            row = (
                f"{idx:>4}  {step.kind:<16}  {step.reduction_point:>3}  {move:<22}  "
                f"{step.fork_size:>4}"
            )
            if rec is not None:
                row += f"  {rec.rq_before:12.6f}  {rec.rq_after:12.6f}"
            lines.append(row)
        if not rows:
            lines.append("(already a caterpillar; empty trace)")
        _emit("\n".join(lines), args.out)
    else:
        _emit(_reduction_json(rows), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call."""
    parser = argparse.ArgumentParser(
        prog="treeindex",
        description="Spectral-radius toolkit for trees with prescribed degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("caterpillar", help="emit the semiregular caterpillar of a class")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot", "table"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_caterpillar)

    p = sub.add_parser("mu", help="index and Perron vector of a tree JSON file")
    p.add_argument("tree")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser(
        "verify-min",
        help="check that the caterpillar uniquely minimizes the index in its class",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_min)

    p = sub.add_parser("search", help="exhaustive index minimization for a degree sequence")
    p.add_argument("--pi", required=True, help='e.g. "4^4,3^2,2,1^12" or "3,3,1,1,1,1"')
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--format", choices=["json", "csv", "table", "dot"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reduce", help="branch-reduction trace of a semiregular tree")
    p.add_argument("tree")
    p.add_argument("--policy", choices=["minimal", "any"], default="minimal")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (TreeError, ReductionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        print(f"error: input nests too deep for this implementation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
