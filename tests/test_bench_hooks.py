"""The benchmark's tracer wraps weylrack functions by name; installing it
must succeed, so a rename that would break a traced benchmark run fails
here instead.  Its counters must also keep counting what they name."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in a fresh interpreter: install() patches modules process-wide
SCRIPT = """
import sys
sys.path[:0] = ["src", "bench"]
import weylrack.cli, tracing
tracer = tracing.Tracer("t")
tracing.install(tracer)
"""

COUNTS = SCRIPT + """
import json
from weylrack.conjugacy import ConjugacyClass
from weylrack.groups import Bn, SignedPermutation

def objects():
    return tracer.counts["groups.signed_perm_new"], tracer.counts["groups.perm_new"]

cent = ConjugacyClass(Bn(4), SignedPermutation.parse("1000;(1 2 3)")).centralizer()
out = {"tallied": tracer.counts["conjugacy.centralizer_elements"], "order": cent.order}
before = objects()
out["len"] = len(cent.elements)
out["len_objects"] = [b - a for a, b in zip(before, objects())]
x, y = SignedPermutation.parse("1000;(1 2)"), SignedPermutation.parse("0100;(2 3 4)")
before = objects()
x * y
out["product_objects"] = [b - a for a, b in zip(before, objects())]
print(json.dumps(out))
"""


def _run(script: str):
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True
    )


def test_tracer_installs_on_current_names():
    proc = _run(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_objects_where_they_are_built():
    # the centralizer tally takes len(cent.elements), which must build no
    # SignedPermutation; a product builds one, with its Permutation
    proc = _run(COUNTS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["tallied"] == out["len"] == out["order"] == 12
    assert out["len_objects"] == [0, 0]
    assert out["product_objects"] == [1, 1]


KERNEL = SCRIPT + """
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    assert weylrack.cli.main({argv!r}) == 0
names = ("nichols.lift_word_calls", "ydmodule.apply_at_calls")
print(json.dumps({{k: tracer.counts[k] for k in names}}))
"""


@pytest.mark.parametrize("argv, lifts, letters", [
    # one one-letter lift per application of c in the coset factors of
    # S_2, S_3 and S_4: k(k-1)/2 each, 1 + 3 + 6
    (["nichols-dim", "--n", "3", "--preset", "--max-degree", "4"], 10, 10),
    # the braid check reads phi and q directly and applies c nowhere
    (["braiding", "--n", "3", "--preset"], 0, 0),
])
def test_tracer_counts_the_braiding_kernel(argv, lifts, letters):
    # every application of c goes through `Braiding._apply_at`, and each
    # one in the symmetrizer through `nichols.lift_word`
    proc = _run(KERNEL.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "nichols.lift_word_calls": lifts, "ydmodule.apply_at_calls": letters}


GRADED = SCRIPT + """
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    assert weylrack.cli.main(["nichols-dim", "--n", "3", "--preset", "--max-degree", "4"]) == 0
    assert weylrack.cli.main(["hilbert", "--algebra", "fk", "--n", "4", "--cap", "13"]) == 0
names = ("nichols.symmetrizer_columns", "nichols.symmetrizer_nnz",
         "ncalg.normal_form_calls", "ncalg.basis_size")
print(json.dumps({k: tracer.counts[k] for k in names}))
"""


def test_tracer_counts_the_graded_layers():
    # S_2..S_4 on D = 3 are built on the columns of one rack degree per
    # conjugacy orbit, 6 + 9 + 54 of 9 + 27 + 81, with 166 non-zeros,
    # whichever degree stands for its orbit; the completion to cap 13
    # reduces 125 polynomials into 25 basis elements
    proc = _run(GRADED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "nichols.symmetrizer_columns": 69, "nichols.symmetrizer_nnz": 166,
        "ncalg.normal_form_calls": 125, "ncalg.basis_size": 25}
