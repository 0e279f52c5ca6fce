"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces public functions and methods of each weylrack layer
with wrappers.  Functions are replaced in every weylrack module that
holds them, so names re-imported elsewhere (``verify.verify_certificate``,
``cli.nichols_graded_dim``) are traced too; ``LEMMA_CHECKS`` is patched in
place.  Calls too frequent for spans (group arithmetic, rack operation,
cyclotomic arithmetic) only bump counters.

Spans stay in memory as [id, parent id, name, start, end] and are written
out as JSONL when the run ends.  Every ``_s`` metric is self time: a
span's duration minus the time its child spans cover.

``PER_LAYER`` names every per-layer metric with its unit, the direction
that is better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS

STRATEGIES = {
    "_strategy_commuting_pair": "commuting-perm-pair",
    "_strategy_fixed_point_split": "fixed-point-sign-split",
    "_strategy_pullback": "projection-pullback",
    "_strategy_seed_closure": "seed-closure",
    "_strategy_exhaustive": "exhaustive-bipartition",
    "_strategy_randomized": "randomized-repair",
}

# The names of verify.LEMMA_CHECKS, listed here so that run.py can declare
# the per-layer metrics without importing the program.
LEMMAS = [
    "square-closed-forms", "negative-control", "juxtaposition-laws",
    "coset-transposition-identities", "character-table", "sign-products",
    "quadratic-relations", "cycle-split", "double-3-cycle-split",
    "two-two-three-split", "fixed-sign-split", "juxtaposition-extension",
    "projection-pullback", "arrow-isomorphism", "scalar-filter",
]

COMMANDS = [label for cmds in WORKLOADS.values() for label, _ in cmds]


def _per_layer() -> list:
    """(name, unit, better, moves) for every per-layer metric."""
    grp = "wall_s/cpu_s on scan and lemmas; peak_rss_mb on lemmas; zero on graded"
    conj = "wall_s mostly on lemmas, about a third of scan; peak_rss_mb on lemmas"
    rk = "wall_s on scan"
    gr = "wall_s on graded"
    out = [(f"groups.{c}", "count", "lower", grp) for c in (
        "conjugate_calls", "mul_calls", "inverse_calls", "signed_perm_new",
        "perm_new", "sort_key_calls")]
    out += [
        ("conjugacy.class_enum_s", "s", "lower", conj),
        ("conjugacy.class_enum_calls", "count", "lower", conj),
        ("conjugacy.class_elements", "count", "lower", conj),
        ("conjugacy.centralizer_s", "s", "lower", conj),
        ("conjugacy.centralizer_calls", "count", "lower", conj),
        ("conjugacy.centralizer_elements", "count", "lower", conj),
        ("conjugacy.coset_system_s", "s", "lower", conj),
        ("conjugacy.coset_system_calls", "count", "lower", conj),
        ("racks.rack_build_s", "s", "lower", rk),
        ("racks.search_s", "s", "lower", rk),
        ("racks.search_calls", "count", "lower", rk),
        ("racks.search_max_s", "s", "lower", rk),
        ("racks.verify_s", "s", "lower", rk),
        ("racks.verify_calls", "count", "lower", rk),
        ("racks.verify_pairs", "count", "lower", rk),
        ("racks.op_calls", "count", "lower", rk),
        ("racks.epimorphism_s", "s", "lower", "wall_s on lemmas"),
    ]
    for s in STRATEGIES.values():
        out += [
            (f"racks.strategy.{s}.attempts", "count", "lower", rk),
            (f"racks.strategy.{s}.wins", "count", "higher", rk),
            (f"racks.strategy.{s}.s", "s", "lower", rk),
        ]
    out += [
        ("reps.char_s", "s", "lower", gr),
        ("ydmodule.build_s", "s", "lower", gr),
        ("ydmodule.braiding_s", "s", "lower", gr),
        ("ydmodule.apply_at_calls", "count", "lower", gr),
    ]
    nich = "wall_s and peak_rss_mb on graded; nil elsewhere"
    out += [
        ("nichols.graded_dim_s", "s", "lower", nich),
        ("nichols.symmetrizer_s", "s", "lower", nich),
        ("nichols.symmetrizer_columns", "count", "lower", nich),
        ("nichols.symmetrizer_nnz", "count", "lower", nich),
        ("nichols.lift_word_calls", "count", "lower", nich),
        ("nichols.rank_s", "s", "lower", nich),
    ]
    lin = "peak_rss_mb, then wall_s, on graded"
    out += [
        ("linalg.rank_mod_p_s", "s", "lower", lin),
        ("linalg.rank_mod_p_calls", "count", "lower", lin),
        ("linalg.rank_int_exact_s", "s", "lower", lin),
        ("linalg.rank_int_exact_calls", "count", "lower", lin),
        ("linalg.matrix_bytes", "bytes", "lower", lin),
    ]
    out += [(f"cyclotomic.{c}", "count", "lower", gr) for c in ("new_calls", "mul_calls", "add_calls")]
    nc = "wall_s on graded only"
    out += [
        ("ncalg.groebner_s", "s", "lower", nc),
        ("ncalg.normal_form_calls", "count", "lower", nc),
        ("ncalg.basis_size", "count", "lower", nc),
        ("ncalg.hilbert_count_s", "s", "lower", nc),
    ]
    out += [(f"verify.check.{name}_s", "s", "lower", "wall_s on lemmas") for name in LEMMAS]
    out += [("verify.emit_s", "s", "lower", "wall_s on lemmas")]
    out += [(f"cli.cmd.{label}_s", "s", "lower", "wall_s of the workload that runs it") for label in COMMANDS]
    out += [
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
        ("trace.coverage", "share", "higher", "none: share of traced wall inside layer spans"),
    ]
    return out


PER_LAYER = _per_layer()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent id, name, start, end]
        self.stack = []
        self.counts = defaultdict(int)

    def open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(args, result)` may bump counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def metrics(self) -> dict:
        """Self time per span name, counters, the slowest search, and the
        share of command time covered by layer spans."""
        out = defaultdict(float)
        names = {}
        for sid, parent, name, start, end in self.spans:
            names[sid] = name
            dur = end - start
            out[_time_metric(name)] += dur
            if parent is not None:
                pname = names[parent]
                out[_time_metric(pname)] -= dur
                if pname.startswith("cli.cmd."):
                    out["trace.covered"] += dur
            if name == "racks.search":
                out["racks.search_max_s"] = max(out["racks.search_max_s"], dur)
        out.update(self.counts)
        return dict(out)


def _time_metric(span_name: str) -> str:
    if span_name.startswith("racks.strategy."):
        return span_name + ".s"
    return span_name + "_s"


def _replace(orig, wrapper) -> None:
    """Point every weylrack module attribute that holds `orig` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("weylrack") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def _wrap_method(cls, attrs, make) -> None:
    for attr in attrs:
        setattr(cls, attr, make(cls.__dict__[attr]))


def install(t: Tracer) -> None:
    """Wrap each layer's entry points; call once per process, after
    importing weylrack.cli and before the timed section."""
    from weylrack import conjugacy, cyclotomic, groups, linalg, ncalg, nichols, racks, reps, verify, ydmodule

    c = t.counts

    def tally(amounts: dict):
        """An `after` hook adding amount(args, result) to each counter."""
        def after(args, result):
            for name, amount in amounts.items():
                c[name] += amount(args, result)
        return after

    def once(args, result):
        return 1

    # groups: counters only; the arithmetic counts are of B_n elements,
    # each of which does one Permutation operation inside
    sp = groups.SignedPermutation
    _wrap_method(sp, ["conjugate"], lambda f: t.counter("groups.conjugate_calls", f))
    _wrap_method(sp, ["__mul__"], lambda f: t.counter("groups.mul_calls", f))
    _wrap_method(sp, ["inverse"], lambda f: t.counter("groups.inverse_calls", f))
    _wrap_method(sp, ["__init__"], lambda f: t.counter("groups.signed_perm_new", f))
    _wrap_method(groups.Permutation, ["__init__"], lambda f: t.counter("groups.perm_new", f))
    _wrap_method(sp, ["sort_key"], lambda f: t.counter("groups.sort_key_calls", f))

    # conjugacy
    _wrap_method(conjugacy.ConjugacyClass, ["__init__"], lambda f: t.span("conjugacy.class_enum", f, tally({
        "conjugacy.class_enum_calls": once,
        "conjugacy.class_elements": lambda a, r: len(a[0].elements)})))
    _wrap_method(conjugacy.Centralizer, ["__init__"], lambda f: t.span("conjugacy.centralizer", f, tally({
        "conjugacy.centralizer_calls": once,
        "conjugacy.centralizer_elements": lambda a, r: len(a[0].elements)})))
    _wrap_method(conjugacy.CosetSystem, ["__init__"], lambda f: t.span(
        "conjugacy.coset_system", f, tally({"conjugacy.coset_system_calls": once})))

    # racks
    _wrap_method(racks.FiniteRack, ["__init__"], lambda f: t.span("racks.rack_build", f))
    _wrap_method(racks.FiniteRack, ["op"], lambda f: t.counter("racks.op_calls", f))
    _wrap_method(racks.RackEpimorphism, ["__init__"], lambda f: t.span("racks.epimorphism", f))
    _replace(racks.find_type_d_certificate, t.span(
        "racks.search", racks.find_type_d_certificate, tally({"racks.search_calls": once})))
    _replace(racks.verify_certificate, t.span("racks.verify", racks.verify_certificate, tally({
        "racks.verify_calls": once,
        "racks.verify_pairs": lambda a, r: (len(a[1].R) + len(a[1].S)) ** 2})))
    for attr, s in STRATEGIES.items():
        fn = getattr(racks, attr)
        name = f"racks.strategy.{s}"
        _replace(fn, t.span(name, fn, tally({
            name + ".attempts": once,
            name + ".wins": lambda a, r: r is not None})))

    # reps and ydmodule
    for attr in ("chi_sgn_sgn", "chi_eps_sgn", "char_from_function", "char_rep", "trivial_rep"):
        fn = getattr(reps, attr)
        _replace(fn, t.span("reps.char", fn))
    _replace(ydmodule.build_yd_module, t.span("ydmodule.build", ydmodule.build_yd_module))
    _wrap_method(ydmodule.YDModule, ["braiding"], lambda f: t.span("ydmodule.braiding", f))
    _wrap_method(ydmodule.Braiding, ["_apply_at"], lambda f: t.counter("ydmodule.apply_at_calls", f))

    # linalg first, so that the nichols rank span below encloses it
    def matrix_bytes(args, result) -> int:
        m = args[0]
        if hasattr(m, "shape"):
            return m.shape[0] * m.shape[1] * 8
        return len(m) * (len(m[0]) if m else 0) * 8

    for attr in ("rank_mod_p", "rank_int_exact"):
        fn = getattr(linalg, attr)
        _replace(fn, t.span(f"linalg.{attr}", fn, tally({
            f"linalg.{attr}_calls": once, "linalg.matrix_bytes": matrix_bytes})))

    # nichols
    _replace(nichols.nichols_graded_dim, t.span("nichols.graded_dim", nichols.nichols_graded_dim))
    for attr in ("rank_int_exact", "rank_two_primes", "rank_cyclo_exact"):
        setattr(nichols, attr, t.span("nichols.rank", getattr(nichols, attr)))
    _replace(nichols.lift_word, t.counter("nichols.lift_word_calls", nichols.lift_word))
    columns = nichols.symmetrizer_columns

    @functools.wraps(columns)
    def traced_columns(*args, **kwargs):
        # a generator: the span runs from the first column to the last,
        # which nichols_graded_dim drains at once into a dict
        rec = t.open("nichols.symmetrizer")
        try:
            for col, entries in columns(*args, **kwargs):
                c["nichols.symmetrizer_columns"] += 1
                c["nichols.symmetrizer_nnz"] += len(entries)
                yield col, entries
        finally:
            t.close(rec)

    _replace(columns, traced_columns)

    # cyclotomic: counters only
    _wrap_method(cyclotomic.Cyclo, ["__init__"], lambda f: t.counter("cyclotomic.new_calls", f))
    _wrap_method(cyclotomic.Cyclo, ["__mul__", "__rmul__"], lambda f: t.counter("cyclotomic.mul_calls", f))
    _wrap_method(cyclotomic.Cyclo, ["__add__", "__radd__"], lambda f: t.counter("cyclotomic.add_calls", f))

    # ncalg
    _replace(ncalg.nc_groebner, t.span(
        "ncalg.groebner", ncalg.nc_groebner, tally({"ncalg.basis_size": lambda a, r: len(r.basis)})))
    _replace(ncalg._normal_form, t.counter("ncalg.normal_form_calls", ncalg._normal_form))
    _replace(ncalg.hilbert_from_basis, t.span("ncalg.hilbert_count", ncalg.hilbert_from_basis))

    # verify
    verify.LEMMA_CHECKS[:] = [(name, t.span(f"verify.check.{name}", fn)) for name, fn in verify.LEMMA_CHECKS]
    _replace(verify.emit_report, t.span("verify.emit", verify.emit_report))
