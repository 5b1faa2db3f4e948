"""Command-line interface.

Subcommands: bounds, construct, induct, verify, skeleton.  Exit codes:
0 all checks pass, 1 a check failed or the operation could not
complete, 2 usage error.  Every result goes out through ``_emit``:
canonical JSON in machine mode (--json), which demands explicit seeds
wherever randomness is involved, so identical invocations produce
byte-identical output, and text otherwise.  A usage error, among them
an input that cannot be read and an output path that cannot be written,
reaches ``main`` as a ValueError, which prints one ``error:`` line.

The argparse parser is built once per process (``build_parser`` is
cached), because building its ~40 options costs more than a short
command; each subcommand names its ``cmd_*`` handler, which ``main``
looks up on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import bounds as bnd
from . import doublecone as dc
from . import skeleton as sk_mod
from .basecase import BaseParams, build_base_state
from .errors import ConewalkError, EjExhausted, EjTooSmall
from .stateio import dumps_canonical, load_state, make_report, read_json, save_state, write_json


def _require_seed(args) -> int:
    if args.json and args.seed is None:
        print("error: --seed is mandatory in --json mode", file=sys.stderr)
        raise SystemExit(2)
    return args.seed if args.seed is not None else 0


def _emit(args, payload, text):
    """The one way a result goes out: ``payload`` as canonical JSON under
    --json, else the line(s) ``text``."""
    if args.json:
        print(dumps_canonical(payload), end="")
    else:
        print(text)


def cmd_bounds(args) -> int:
    if args.sum:
        n, m = args.sum
        s = bnd.sum_S(n, m)
        payload, text = {"n": n, "m": m, "sum": s}, f"S({n},{m}) = {s}"
        if m in (2, 3):
            cf = bnd.closed_form_S(n, m)
            if cf != s:
                print(f"inconsistency: sum {s} != closed form {cf}", file=sys.stderr)
                return 1
            payload["closed_form"] = cf
            text += f" (closed form {cf})"
        _emit(args, payload, text)
        return 0
    if args.table:
        if args.m is None:
            raise ValueError("--table needs --m")
        lo, hi = args.table
        if lo > hi:
            raise ValueError(f"--table needs D1 <= D2, got {lo}:{hi}")
        rows = []
        for d in range(lo, hi + 1):
            w_max = bnd.max_N(d, args.m)
            w = bnd.applicable(d, w_max, args.m)
            rows.append({"d": d, "m": args.m, "max_N": w_max, "n": w.n, "r": w.r, "s": w.s})
        keys = ("d", "m", "max_N", "n", "r", "s")
        lines = ["\t".join(keys)] + ["\t".join(str(row[key]) for key in keys) for row in rows]
        _emit(args, rows, "\n".join(lines))
        return 0
    if args.d is None or args.N is None or args.m is None:
        raise ValueError("need --d, --N, --m (or --sum / --table)")
    w = bnd.applicable(args.d, args.N, args.m, args.char)
    payload = {"d": args.d, "N": args.N, "m": args.m, "char": args.char, "applicable": w is not None}
    text = "applicable: no"
    if w:
        payload["witness"] = {"n": w.n, "r": w.r, "s": w.s}
        text = f"applicable: yes, witness n={w.n} r={w.r} s={w.s}"
    _emit(args, payload, text)
    return 0


def cmd_construct(args) -> int:
    seed = _require_seed(args)
    bp = BaseParams(n=args.n, m=args.m, r=args.r, d=args.d, p=args.p)
    state = build_base_state(bp, h_choice=args.h_choice)
    if args.seed is not None:
        rng = random.Random(seed)
        state.params["pi"] = rng.randrange(1, args.p)
        state.params["rho"] = rng.randrange(1, args.p)
        state.log("assign-params", pi=state.params["pi"], rho=state.params["rho"], seed=seed)
    save_state(state, args.out)
    _emit(args, {"out": args.out, "e": state.e, "s": state.s}, f"wrote {args.out} (s=0, e={state.e})")
    return 0


def cmd_induct(args) -> int:
    seed = _require_seed(args)
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    state = load_state(args.state)
    if args.j is not None and not 1 <= args.j <= state.r:
        raise ValueError(f"--j must lie in 1..r = 1..{state.r}, got {args.j}")
    applied = 0
    try:
        for k in range(args.steps):
            state = dc.induct_step(state, j0=args.j, seed=seed + k)
            applied += 1
    except (EjExhausted, EjTooSmall) as ex:
        print(f"stopped after {applied} step(s): {type(ex).__name__}: {ex}", file=sys.stderr)
        if applied:
            save_state(state, args.out)
        return 1
    save_state(state, args.out)
    payload = {"out": args.out, "steps": applied, "s": state.s, "e": state.e}
    _emit(args, payload, f"wrote {args.out} (s={state.s}, e={state.e})")
    return 0


def cmd_verify(args) -> int:
    seed = _require_seed(args)
    state = load_state(args.state)
    report = make_report(dc.verify_station(state, args.trials, seed))
    if args.report:
        write_json(args.report, report, "report file")
    s = report["summary"]
    lines = [f"[{'ok ' if c['pass'] else 'FAIL'}] {c['check']}" for c in report["checks"]]
    _emit(args, report, "\n".join([*lines, f"{s['passed']}/{s['total']} checks passed"]))
    return 0 if s["failed"] == 0 else 1


def _load_graph(path):
    data = read_json(path, "graph file")
    try:
        return sk_mod.skeleton_from_json(data)
    except ValueError as ex:
        raise ValueError(f"graph file {path}: {ex}") from None
    except (KeyError, TypeError) as ex:
        # a key missing from a module, or a label that names no vertex or edge
        raise ValueError(f"graph file {path}: malformed ({type(ex).__name__}: {ex})") from None


def cmd_skeleton(args) -> int:
    if args.skeleton_cmd in ("telescope", "transfer") and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.skeleton_cmd == "subdivide":
        sk = _load_graph(args.graph)
        ssk = sk_mod.subdivide(sk, args.r)
        v, e = len(sk.graph.vertices), len(sk.graph.edges)
        got = len(ssk.graph.vertices), len(ssk.graph.edges)
        expected = v + (args.r - 1) * e, args.r * e
        payload = {"r": args.r, "vertices": got[0], "edges": got[1], "pass": got == expected,
                   "vertices_expected": expected[0], "edges_expected": expected[1]}
        _emit(args, payload, None)  # JSON only: its parser sets json
        return 0 if payload["pass"] else 1
    if args.skeleton_cmd == "telescope":
        seed = _require_seed(args)
        sk = sk_mod.unit_skeleton(args.c, args.k)
        ssk = sk_mod.subdivide(sk, args.r)
        rng = random.Random(seed)
        checks = []
        for t in range(args.trials):
            chain = ssk.random_chain(rng)
            for entry in sk_mod.telescope_check(ssk, chain, args.c):
                entry = dict(entry)
                entry["check"] = f"trial{t}-{entry['check']}"
                checks.append(entry)
        report = make_report(checks)
        s = report["summary"]
        _emit(args, report, f"telescope c={args.c} r={args.r}: {s['passed']}/{s['total']} pass")
        return 0 if s["failed"] == 0 else 1
    if args.skeleton_cmd == "coker":
        try:
            matrix = json.loads(args.map)
        except ValueError as ex:
            raise ValueError(f"--map is not JSON ({ex}); give a file path as a JSON string") from None
        if isinstance(matrix, str):
            matrix = read_json(matrix, "map file")
        ok = sk_mod.cokernel_torsion(matrix, args.m, ring=args.c)
        _emit(args, {"m": args.m, "torsion": ok}, f"{args.m}-torsion: {'yes' if ok else 'no'}")
        return 0
    # transfer, the last subcommand
    seed = _require_seed(args)
    sk = _load_graph(args.graph)
    result = sk_mod.surjectivity_transfer_demo(sk, args.r, args.c, args.trials, seed, m=args.m)
    text = f"transfer: {result['solved']}/{result['trials']} solvable, {result['verified']} verified"
    _emit(args, result, text)
    return 0 if result["pass"] else 1


STATE_SCHEMA_HELP = """\
file formats:
  state files (construct/induct/verify) are JSON documents
    {schema_version, p, dims {n,m,r,s,d}, params {pi,lam,rho,t: "symbolic"|int},
     f0, a0, a {"i,j": poly}, e [..], h_poly, provenance [..]}
    with polynomials in the grammar
      poly   ::= term (("+" | "-") term)*
      term   ::= factor ("*" factor)*
      factor ::= int | name ["^" ["-"] int]
    over variables x0..xn, y1..y(r+1), z1..zs and parameters pi lam rho
    t (lam alone may carry negative exponents; int is unsigned decimal);
    the family's z, w and the later steps' z(s+1).. are not state
    variables;
    whitespace may stand between tokens but not inside one, "-" always
    subtracts, every "*" needs a factor after it, and states are
    written in canonical form, with " + " between terms;
  graph files (skeleton subdivide/transfer) are JSON documents
    {vertices [..], edges [[v,w]..], ch1/ch0_vertex {"v": module},
     ch0_edge {"v|w": module}, inter/push {"v|w@v": matrix}}
    with module = {ring, rank, factors} (ring 0 means the integers).
"""


def _degree_range(text):
    """The ``--table`` value D1:D2 as the pair (D1, D2) of ints."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D1:D2, two integers, got {text!r}") from None
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conewalk",
        description="Exact calculus for cone degenerations of hypersurfaces.",
        epilog=STATE_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bounds", help="floor sums, closed forms, applicability witnesses")
    b.add_argument("--d", type=int)
    b.add_argument("--N", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--char", type=int, default=0, help="base field characteristic (0 = any)")
    b.add_argument("--sum", type=int, nargs=2, metavar=("N", "M"), help="print S(n, m) both ways")
    b.add_argument("--table", type=_degree_range, metavar="D1:D2")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func="cmd_bounds")

    c = sub.add_parser("construct", help="write a fresh seed state file")
    csub = c.add_subparsers(dest="construct_cmd", required=True)
    cb = csub.add_parser("base")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--m", type=int, required=True)
    cb.add_argument("--r", type=int, required=True)
    cb.add_argument("--d", type=int, required=True)
    cb.add_argument("--p", type=int, required=True)
    cb.add_argument("--h-choice", choices=["default", "char-divides-d"], default="default")
    cb.add_argument("--seed", type=int, default=None, help="assign pi/rho sampling values")
    cb.add_argument("--out", required=True)
    cb.add_argument("--json", action="store_true")
    cb.set_defaults(func="cmd_construct")

    i = sub.add_parser("induct", help="apply cone steps to a state file")
    i.add_argument("--state", required=True)
    i.add_argument("--j", type=int, default=None, help="column choice (default: smallest usable)")
    i.add_argument("--steps", type=int, default=1)
    i.add_argument("--seed", type=int, default=None)
    i.add_argument("--out", required=True)
    i.add_argument("--json", action="store_true")
    i.set_defaults(func="cmd_induct")

    v = sub.add_parser("verify", help="run all structural checks on a state file")
    v.add_argument("--state", required=True)
    v.add_argument(
        "--trials",
        type=int,
        default=20,
        metavar="N",
        help="up to N plane slices; the first squarefree slice decides",
    )
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--report", default=None, help="also write the JSON report here")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func="cmd_verify")

    s = sub.add_parser("skeleton", help="dual-graph obstruction calculus")
    ssub = s.add_subparsers(dest="skeleton_cmd", required=True)
    s1 = ssub.add_parser("subdivide")
    s1.add_argument("--graph", required=True)
    s1.add_argument("--r", type=int, required=True)
    s1.set_defaults(func="cmd_skeleton", json=True)
    s2 = ssub.add_parser("telescope")
    s2.add_argument("--c", type=int, required=True)
    s2.add_argument("--r", type=int, required=True)
    s2.add_argument("--k", type=int, default=1, help="module rank")
    s2.add_argument("--trials", type=int, default=10)
    s2.add_argument("--seed", type=int, default=None)
    s2.add_argument("--json", action="store_true")
    s2.set_defaults(func="cmd_skeleton")
    s3 = ssub.add_parser("coker")
    s3.add_argument("--map", required=True, help="the matrix as JSON; a JSON string names a file holding it")
    s3.add_argument("--m", type=int, required=True)
    s3.add_argument("--c", type=int, default=0, help="ring modulus (0 = integers)")
    s3.add_argument("--json", action="store_true")
    s3.set_defaults(func="cmd_skeleton")
    s4 = ssub.add_parser("transfer")
    s4.add_argument("--graph", required=True)
    s4.add_argument("--c", type=int, required=True)
    s4.add_argument("--r", type=int, required=True)
    s4.add_argument("--trials", type=int, default=20)
    s4.add_argument("--seed", type=int, default=None)
    s4.add_argument("--m", type=int, default=1)
    s4.add_argument("--json", action="store_true")
    s4.set_defaults(func="cmd_skeleton")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is named, not held, by the cached parser, so a replaced
    # cmd_* (a test's monkeypatch, a tracer's wrapper) is the one that runs
    handler = globals()[args.func]
    try:
        return handler(args)
    except ConewalkError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        # one that is also a ValueError is bad input, a usage error
        return 2 if isinstance(ex, ValueError) else 1
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
