"""Command-line front end.

Subcommands: verify-lemmas, scan-classes, type-d, braiding, nichols-dim,
hilbert, class-info.  A JSON config file can preset --seed and --samples;
explicit flags win.  Exit codes: 0 all pass, 1 any failure, 2 inconclusive
results without failures, or input that is refused, invalid or unreadable
(one error line).
"""

from __future__ import annotations

import argparse
import json
import sys

from .conjugacy import ConjugacyClass, transposition_preset
from .groups import BudgetExceeded, Bn, Sn
from .ncalg import a_algebra_presentation, fk_presentation, hilbert_series
from .nichols import nichols_graded_dim
from .racks import FiniteRack, find_type_d_certificate
from .reps import chi_eps_sgn, chi_sgn_sgn
from .verify import (
    LEMMA_CHECKS,
    VerifyConfig,
    emit_report,
    scan_classes,
    verify_lemmas,
)


# keys a config file may carry besides "schema"; flags that argparse
# requires or defaults (--n, --cap, --max-degree) would always win, so they
# are not among them
CONFIG_KEYS = ["seed", "samples"]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "schema" not in data:
        raise SystemExit(f"config {path}: missing \"schema\": 1")
    if data["schema"] != 1:
        raise SystemExit(f"unsupported config schema {data['schema']!r}")
    unknown = sorted(set(data) - {"schema", *CONFIG_KEYS})
    if unknown:
        raise SystemExit(
            f"config {path}: unknown keys {', '.join(unknown)} "
            f"(allowed: schema, {', '.join(CONFIG_KEYS)})"
        )
    return data


def _merge(args, data: dict, keys: list):
    """Config file supplies defaults; explicit flags win."""
    for key in keys:
        if getattr(args, key, None) is None and key in data:
            setattr(args, key, data[key])


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _group(args):
    return Bn(args.n) if args.group == "bn" else Sn(args.n)


def _class_and_char(args):
    if args.preset:
        cs = transposition_preset(args.n)
    elif args.element is None:
        raise ValueError(f"{args.command} needs --preset or --element")
    else:
        group = _group(args)
        cls = ConjugacyClass(group, group.parse(args.element))
        cs = cls.coset_system()
    cent = cs.centralizer
    chi = {"sgn-sgn": chi_sgn_sgn, "eps-sgn": chi_eps_sgn}[args.char](cent)
    return cs, chi


def _exit_code(statuses) -> int:
    if any(s == "fail" for s in statuses):
        return 1
    if any(s == "inconclusive" for s in statuses):
        return 2
    return 0


def cmd_verify_lemmas(args) -> int:
    cfg = VerifyConfig(
        seed=args.seed if args.seed is not None else 0,
        samples=args.samples if args.samples is not None else 10000,
        mutate=bool(args.mutate),
    )
    selection = args.select.split(",") if args.select else None
    reports = verify_lemmas(selection, cfg)
    _write(emit_report(reports, args.format, include_runtime=args.runtime), args.out)
    return _exit_code(r.status for r in reports)


def cmd_scan_classes(args) -> int:
    cfg = VerifyConfig(seed=args.seed if args.seed is not None else 0)
    rows = scan_classes(args.n, cfg)
    _write(emit_report(rows, args.format), args.out)
    return _exit_code(
        "inconclusive" if r.outcome == "inconclusive" else "pass" for r in rows
    )


def cmd_type_d(args) -> int:
    group = _group(args)
    rack = FiniteRack.from_class(ConjugacyClass(group, group.parse(args.element)))
    res = find_type_d_certificate(rack, args.seed if args.seed is not None else 0)
    if res:
        payload = {"outcome": "certificate", "certificate": res.certificate.to_json()}
    else:
        payload = {
            "outcome": "inconclusive",
            "attempted": res.attempted,
            "exhausted": res.exhausted,
        }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if res else 2


def cmd_braiding(args) -> int:
    from .ydmodule import build_yd_module

    cs, chi = _class_and_char(args)
    mod = build_yd_module(cs, chi)
    braiding = mod.braiding()
    braiding.check_invertible()
    braiding.check_braid_equation(sample=None if braiding.D <= 30 else 500)
    payload = {
        "dimension": braiding.D,
        "monomial": braiding.is_monomial,
        "braid_equation": "verified",
        "terms": {
            f"{a},{b}": [[list(t), repr(v)] for t, v in out]
            for (a, b), out in sorted(braiding.terms.items())
        }
        if args.terms
        else "omitted (use --terms)",
    }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_nichols_dim(args) -> int:
    from .ydmodule import build_yd_module

    cs, chi = _class_and_char(args)
    braiding = build_yd_module(cs, chi).braiding()
    payload = nichols_graded_dim(braiding, args.max_degree).to_json()
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_hilbert(args) -> int:
    if args.algebra == "fk":
        pres = fk_presentation(args.n, form=args.form)
    elif args.signs is None:
        raise ValueError("hilbert --algebra A needs --signs")
    else:
        with open(args.signs) as fh:
            tables = json.load(fh)

        def lookup(name):
            table = tables[name]

            def fn(*idx):
                return table[",".join(map(str, idx))]

            return fn

        pres = a_algebra_presentation(
            args.n, lookup("alpha"), lookup("beta"), lookup("gamma"), lookup("lambda")
        )
    payload = hilbert_series(pres, args.cap).to_json()
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_class_info(args) -> int:
    group = _group(args)
    x = group.parse(args.element)
    cls = ConjugacyClass(group, x)
    cent = cls.centralizer()
    payload = {
        "element": x.format(),
        "group": repr(group),
        "signed_cycle_type": [list(p) for p in x.signed_cycle_type()],
        "class_size": cls.size,
        "centralizer_order": cent.order,
        "product": cls.size * cent.order,
        "group_order": group.order,
    }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylrack",
        description="exact computations with signed-permutation conjugacy "
        "classes, their braidings, and graded dimensions",
    )
    parser.add_argument("--config", help="JSON config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemmas", help="run the identity/certificate checks")
    p.add_argument("--select", help="comma-separated check names (default: all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--mutate", action="store_true", help="negative-control mode")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.add_argument("--format", default="json", choices=["json", "csv", "markdown"])
    p.add_argument("--runtime", action="store_true", help="include runtimes")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_lemmas)

    p = sub.add_parser("scan-classes", help="classify all classes of B_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="json", choices=["json", "csv", "markdown"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_scan_classes)

    p = sub.add_parser("type-d", help="search a type-D certificate for one class")
    p.add_argument("--group", default="bn", choices=["bn", "sn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--element", required=True, help='e.g. "10000;(1 2 3 4 5)"')
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_type_d)

    for name, fn in (("braiding", cmd_braiding), ("nichols-dim", cmd_nichols_dim)):
        p = sub.add_parser(name)
        p.add_argument("--group", default="sn", choices=["bn", "sn"])
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--preset",
            action="store_true",
            help="use the transposition class with its standard coset table",
        )
        p.add_argument("--element", help="class representative (ignored with --preset)")
        p.add_argument("--char", default="sgn-sgn", choices=["sgn-sgn", "eps-sgn"])
        p.add_argument("--out")
        if name == "braiding":
            p.add_argument("--terms", action="store_true")
        else:
            p.add_argument("--max-degree", type=int, default=4)
        p.set_defaults(fn=fn)

    p = sub.add_parser("hilbert", help="Hilbert data of a quadratic algebra")
    p.add_argument("--algebra", default="fk", choices=["fk", "A"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--form", default="lt", choices=["lt", "all"])
    p.add_argument("--signs", help="JSON sign tables for --algebra A")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("class-info", help="class size, centralizer, invariants")
    p.add_argument("--group", default="bn", choices=["bn", "sn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_class_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge(args, _load_config(args.config), CONFIG_KEYS)
        if getattr(args, "list", False):
            for name, _ in LEMMA_CHECKS:
                print(name)
            return 0
        return args.fn(args)
    except (BudgetExceeded, ValueError, OSError) as exc:
        # refused, invalid or unreadable input: one line, as argparse
        # reports bad flags
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
