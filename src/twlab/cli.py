"""Command-line surface: gen, tw, reduce, solve, verify.

Every subcommand is a thin adapter over the library: parse flags, read and
write the documented JSON formats, print results.  Verdicts are printed as
the literal tokens "yes"/"no" on stdout; the fully resolved configuration is
echoed to stderr.  Exit codes: 0 success / all-agree, 1 verification found a
disagreement or a failed check, a reduction's witness failed certification,
or a solve's witness failed its check, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from twlab import harness as hn
from twlab import problems as pr
from twlab import reductions as rd
from twlab import solvers as sv
from twlab import treewidth as tw
from twlab.errors import InputError
from twlab.graphs import graph_to_json, partitioned_to_json


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- gen ------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    reads = hn.PARTITIONED.reads if args.kind == "kpartite" else ("n", "p", "max_weight")
    hn.refuse_unread(f"gen --kind {args.kind}", reads, args)
    if args.kind == "kpartite":
        pg = hn.gen_partitioned(args.k, args.n, args.p, args.plant, args.seed)
        _write_json(args.output, partitioned_to_json(pg))
    else:
        g, weights = hn.gen_weighted(args.n, args.p, args.max_weight, args.seed)
        _write_json(args.output, dict(graph_to_json(g), weights=weights))
    print(f"wrote {args.output}")
    return 0


# --- tw -------------------------------------------------------------------------

def _cmd_tw(args) -> int:
    g = pr.graph_from_file(_read_json(args.file))
    if args.method == "exact":
        value, td = tw.exact_treewidth(g, args.limit)
    else:
        method = {"minfill": "min-fill", "mindeg": "min-degree"}[args.method]
        td = tw.heuristic_decomposition(g, method)
        value = tw.width(td)
    print(value)
    if args.output:
        _write_json(args.output, tw.decomposition_to_json(td))
    return 0


# --- reduce ---------------------------------------------------------------------

def _cmd_reduce(args) -> int:
    pipeline = hn.PIPELINES[args.pipeline]
    source = pipeline.source.read(_read_json(args.file), args.k, pipeline.name)
    out = pipeline.reduce(source)
    violations = rd.certify(out)
    if violations:
        print("error: the reduction's witness fails certification: " + "; ".join(violations[:3]),
              file=sys.stderr)
        return 1
    _write_json(args.output, rd.reduction_output_to_json(out))
    if args.witness:
        _write_json(args.witness, tw.decomposition_to_json(out.witness))
    print(f"wrote {args.output} (claimed width bound {out.claimed_width_bound})")
    return 0


# --- solve ----------------------------------------------------------------------

def _cmd_solve(args) -> int:
    def check_kind(kind: pr.ProblemKind) -> None:
        if args.solver == "flow" and kind.cls is not pr.MinMaxOutdegreeInstance:
            raise InputError("flow expects a minmax_outdegree instance")
        if args.solver == "dp":
            hn.require_dp(kind)

    inst = pr.instance_from_json(_read_json(args.file), check_kind)
    if args.solver == "flow":
        weights = set(inst.weights)
        if len(weights) > 1:
            raise InputError("flow requires a uniform weighting")
        c = weights.pop() if weights else 1
        d, lam = sv.min_max_orientation(inst.graph)
        witness = lam if c * d <= inst.r else None
    elif args.solver == "bf":
        witness = hn.solve_bf(inst)
    else:
        ntd = None
        if args.td:
            ntd = tw.to_nice(tw.decomposition_from_json(_read_json(args.td)), inst.graph)
        witness = hn.solve_dp(inst, ntd)

    print("yes" if witness is not None else "no")
    if args.solver == "flow":
        print(f"minimum max outgoing weight: {c * d} (instance allows {inst.r})")
    if witness is not None:
        kind = pr.kind_of(inst)
        checked = kind.check(inst, witness)  # the one check of this witness
        noun, witness_obj = kind.witness(witness)
        print(f"witness: {noun} (checked: {checked})")
        if not checked:
            return 1
        if args.witness_out:
            _write_json(args.witness_out, witness_obj)
    return 0


# --- verify ---------------------------------------------------------------------

def _cmd_verify(args) -> int:
    cfg = hn.ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(hn.ExperimentConfig)})
    rep = hn.verify_reduction(cfg)
    if args.report:
        fmt = "csv" if args.report.endswith(".csv") else "json"
        hn.emit_report(rep, args.report, fmt)
    s = rep.summary
    print(
        f"{s['agreements']}/{s['total']} agree, max witness width {s['max_width_seen']}, "
        f"{'pass' if s['pass'] else 'FAIL'}, "
        f"sources yes/no {s['yes_source']}/{s['no_source']}"
    )
    return 0 if s["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    # gen's and verify's defaults are ExperimentConfig's, which refuse_unread compares with
    defaults = {f.name: f.default for f in fields(hn.ExperimentConfig) if f.default is not MISSING}
    parser = argparse.ArgumentParser(
        prog="twlab",
        description="treewidth gadget reductions, solvers, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance file")
    g.add_argument("--kind", choices=["kpartite", "weighted"], required=True)
    g.add_argument("-k", type=int)
    g.add_argument("-n", type=int)
    g.add_argument("-p", type=float)
    g.add_argument("--plant", action="store_true")
    g.add_argument("--max-weight", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen, **{f: defaults[f] for f in ("k", "n", "p", "plant", "max_weight", "seed")})

    t = sub.add_parser("tw", help="decompose a graph and print its width")
    t.add_argument("--method", choices=["minfill", "mindeg", "exact"], default="minfill")
    t.add_argument("--limit", type=int, default=tw.EXACT_DEFAULT_LIMIT)
    t.add_argument("-o", "--output")
    t.add_argument("file")
    t.set_defaults(func=_cmd_tw)

    r = sub.add_parser("reduce", help="apply a reduction to an instance file")
    r.add_argument("--pipeline", choices=list(hn.PIPELINES), required=True)
    r.add_argument("-k", type=int, default=None,
                   help="clique size (clique-gensat), or a k-partite source's part count")
    r.add_argument("-o", "--output", required=True)
    r.add_argument("--witness", help="also write the witness decomposition here")
    r.add_argument("file")
    r.set_defaults(func=_cmd_reduce)

    s = sub.add_parser("solve", help="solve an instance file and print yes/no")
    s.add_argument("--solver", choices=["bf", "dp", "flow"], required=True)
    s.add_argument("--td", help="decomposition file for the DP solver")
    s.add_argument("--witness-out", help="write the witness here")
    s.add_argument("file")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run a seeded oracle-equivalence sweep")
    v.add_argument("--pipeline", choices=list(hn.PIPELINES), required=True)
    v.add_argument("-k", type=int)
    v.add_argument("-n", type=int)
    v.add_argument("-p", type=float)
    v.add_argument("--plant", action="store_true")
    v.add_argument("--cases", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--solver", choices=["bf", "dp", "both"])
    v.add_argument("--max-weight", type=int)
    v.add_argument("--rho-max", type=int)
    v.add_argument("--jobs", type=int)
    v.add_argument("--unsafe", action="store_true", help="lift size guards")
    v.add_argument("--report", help="write the report here (.json or .csv)")
    v.set_defaults(func=_cmd_verify, **defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    _echo_config(args)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
