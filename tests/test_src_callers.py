"""Every function and class in `src/weylrack` has a caller in `src/`: code
that only tests reach belongs in the tests.  A method counts as called
only through an attribute reference (`x.name`), not through a bare name
that happens to match it.  Likewise every parameter with a default, and
every dataclass field with one, is passed by some call in `src/`: an
option that only tests set belongs in the tests.  The few exceptions are listed with their reasons.  The
modules import one another at module level only, and never in a cycle:
each layer stands on the ones below it."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "weylrack")

# qualified name -> why it has no caller in src/
NO_CALLER_IN_SRC = {
    "SignedPermutation.sort_key": "the reference for groups.text_order, counted by the bench",
    "reps.char_rep": "named in bench/tracing.py's span list",
    "reps.trivial_rep": "named in bench/tracing.py's span list",
    "nichols.quadratic_cover_presentation": "ROADMAP item 1 wires it",
}

# qualified parameter -> why no call in src/ passes it
DEFAULT_NOT_PASSED_IN_SRC = {
    "cli.main.argv": "bench/worker.py and the tests call main in-process",
}


def _modules():
    """(module name, syntax tree) of every module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


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
    for module, tree in _modules():
        defined += _definitions(tree, module)
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


def test_no_relative_import_sits_inside_a_function():
    inside = {
        f"{module}.{node.name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, ast.ImportFrom) and sub.level for sub in ast.walk(node))
    }
    assert inside == set()


def test_the_module_import_graph_is_acyclic():
    # each module's package imports at module level, `from .x import ...`
    # and `from . import x` alike; peel off the modules whose imports are
    # all peeled until none is left, or a cycle remains
    graph = {
        module: {
            name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module] if node.module else [alias.name for alias in node.names])
        }
        for module, tree in _modules()
    }
    done = set()
    while len(done) < len(graph):
        ready = {module for module, deps in graph.items() if module not in done and deps <= done}
        assert ready, f"import cycle among {sorted(graph.keys() - done)}"
        done |= ready


def _is_dataclass(node) -> bool:
    """Whether the class is decorated with `@dataclass` or `@dataclass(...)`."""
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _dataclass_fields(node, module):
    """(qualified field, callee names, position) of every field with a
    default of a dataclass, as for the parameters of its generated
    `__init__`: the position is the field's index among the fields that
    are parameters (an `init=False` field is none), and a keyword of a
    `replace(...)` call passes the field too."""
    out, position = [], 0
    names = {node.name, f"cls@{node.name}", "replace"}
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        is_field = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        options = {k.arg: k.value for k in value.keywords} if is_field else {}
        if getattr(options.get("init"), "value", True) is False:
            continue
        if value is not None and (not is_field or {"default", "default_factory"} & options.keys()):
            out.append((f"{module}.{node.name}.{stmt.target.id}", names, position))
        position += 1
    return out


def _defaulted(tree, module):
    """(qualified parameter, callee names, position) of every parameter
    with a default: the names a call may reach the function by, and the
    parameter's index among the positional arguments a call passes (None
    for a keyword-only one).  A method is reached through an attribute,
    `__init__` through its class's name or `cls(...)` in its class, and a
    function through its bare name or an attribute.  The fields of a
    dataclass with a default count as parameters (_dataclass_fields)."""
    out = []

    def walk(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    out.extend(_dataclass_fields(child, module))
                walk(child, child.name, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = 1 if cls and not static else 0  # self or cls
                names = {child.name}
                if child.name == "__init__":
                    names = {cls, f"cls@{cls}", "__init__"}
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((f"{owner}.{child.name}.{arg.arg}", names, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((f"{owner}.{child.name}.{arg.arg}", names, None))
                walk(child, owner, None)
            else:
                walk(child, owner, cls)

    walk(tree, module, None)
    return out


def _calls(tree):
    """(callee name, positional count, keywords, starred) of every call;
    `cls(...)` inside class C is named `cls@C`.  `replace(obj, ...)`
    (dataclasses.replace) passes fields by keyword only, so its positional
    count is 0."""
    out = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls" and cls:
                    name = f"cls@{cls}"
                starred = any(isinstance(a, ast.Starred) for a in child.args) or any(
                    k.arg is None for k in child.keywords
                )
                count = 0 if name == "replace" else len(child.args)
                out.append((name, count, {k.arg for k in child.keywords}, starred))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, None)
    return out


def test_every_default_parameter_is_passed_by_a_call_in_src():
    defaulted, calls = [], []
    for module, tree in _modules():
        defaulted += _defaulted(tree, module)
        calls += _calls(tree)
    never = {
        qual
        for qual, names, position in defaulted
        if not any(
            name in names
            and (starred or qual.rsplit(".", 1)[1] in keywords or (position is not None and position < count))
            for name, count, keywords, starred in calls
        )
    }
    assert never == set(DEFAULT_NOT_PASSED_IN_SRC)
