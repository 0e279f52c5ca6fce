"""Every function and class in `src/weylrack` has a caller in `src/`: code
that only tests reach belongs in the tests.  A method counts as called
only through an attribute reference (`x.name`), not through a bare name
that happens to match it.  The few exceptions are listed with their
reasons."""

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
    """(qualified name, bare name, is a method) of every function and
    class, methods qualified by their class and the rest by their module."""
    out = []

    def walk(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{owner}.{child.name}", child.name, in_class))
                is_class = isinstance(child, ast.ClassDef)
                walk(child, child.name if is_class else owner, is_class)
            else:
                walk(child, owner, False)

    walk(tree, module, False)
    return out


def _references(tree):
    """(bare, attribute): the names a `Name` or an import refers to, and
    the names an `Attribute` refers to."""
    bare, attribute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attribute.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bare.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return bare, attribute


def test_every_src_function_has_a_caller_in_src():
    defined, bare, attribute = [], set(), set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read())
            defined += _definitions(tree, name[:-3])
            names, attrs = _references(tree)
            bare |= names
            attribute |= attrs
    # dunders are called by the language, not by name
    uncalled = {
        qual for qual, name, method in defined
        if name not in (attribute if method else bare | attribute)
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert uncalled == set(NO_CALLER_IN_SRC)
