"""Every function and class in `src/weylrack` has a caller in `src/`: code
that only tests reach belongs in the tests.  The few exceptions are listed
with their reasons."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "weylrack")

# qualified name -> why it has no caller in src/
NO_CALLER_IN_SRC = {
    "SignedPermutation.sort_key": "the reference for groups.text_order, counted by the bench",
    "reps.char_rep": "named in bench/tracing.py's span list",
    "reps.trivial_rep": "named in bench/tracing.py's span list",
    "ncalg.quadratic_cover_presentation": "ROADMAP item 1 wires it",
    "FiniteRack.from_table": "builds the generic racks the rack tests search",
}


def _definitions(tree, module):
    """(qualified name, bare name) of every function and class, methods
    qualified by their class and the rest by their module."""
    out = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{owner}.{child.name}", child.name))
                walk(child, child.name if isinstance(child, ast.ClassDef) else owner)
            else:
                walk(child, owner)

    walk(tree, module)
    return out


def _references(tree):
    """Every name a `Name`, an `Attribute` or an import refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def test_every_src_function_has_a_caller_in_src():
    defined, referenced = [], set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read())
            defined += _definitions(tree, name[:-3])
            referenced.update(_references(tree))
    # dunders are called by the language, not by name
    uncalled = {
        qual for qual, bare in defined
        if bare not in referenced and not (bare.startswith("__") and bare.endswith("__"))
    }
    assert uncalled == set(NO_CALLER_IN_SRC)
