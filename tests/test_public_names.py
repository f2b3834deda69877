"""Every public name and every option earns its place: a census of the
modules' `__all__`, of the public methods of their classes, of the
package's defaulted parameters and of the imports of every module."""

import ast
import importlib
import pathlib

import gkdvlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(gkdvlab.__file__).parent

# defaulted parameters that no caller sets: each reaches an error path
# that valid input does not reach
UNSET = {
    ("resolve_cnoidal", "tolerance"):
        "the residual check that rejects parameters off the wave",
    ("picard_solve", "tol"): "a window too long for the viscosity",
    ("picard_solve", "max_iter"): "a window too long for the viscosity",
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree, name, skip=()):
    """Loads of `name`, as a bare name or an attribute, outside `skip`."""
    return sum(1 for node in ast.walk(tree) if node not in skip and (
        isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == name))


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _callers(modules):
    """The package, the benchmark and the acceptance criteria."""
    return list(modules.values()) + [
        ast.parse(path.read_text()) for path in
        sorted((ROOT / "bench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]]


def test_every_public_name_resolves_and_has_a_caller():
    modules = _modules()
    callers = _callers(modules)
    exported = {stem: _exported(tree) for stem, tree in modules.items()}

    # (a) the bench tracer getattr()s every exported name
    for stem, names in exported.items():
        module = importlib.import_module(f"gkdvlab.{stem}")
        assert [n for n in names if not hasattr(module, n)] == [], stem

    # (b) a caller in the package, the benchmark or an acceptance criterion
    idle = []
    for stem, names in exported.items():
        for name in names:
            own = set()
            for node in modules[stem].body:
                if getattr(node, "name", None) == name:
                    own.update(ast.walk(node))
            if not any(_references(tree, name, own if tree is modules[stem]
                                   else ()) for tree in callers):
                idle.append(name)
    assert idle == []

    # (c) the package re-exports only exported names
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    stray = [(node.module, alias.name) for node in init.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names
             if alias.name not in exported.get(node.module, ())]
    assert stray == []


def test_every_public_method_has_a_caller():
    # a method, property or classmethod not named _x of a class in
    # `__all__`, called by name outside its own body
    modules = _modules()
    callers = _callers(modules)
    idle = []
    for stem, tree in modules.items():
        exported = _exported(tree)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    own = set(ast.walk(node))
                    if not any(_references(caller, node.name, own)
                               for caller in callers):
                        idle.append(f"{cls.name}.{node.name}")
    assert idle == []


def _defaulted(tree):
    """(call name, parameter, positional index or None, def node) of each
    defaulted parameter; a method's index counts its self or cls, which
    its call leaves out, and a constructor is called by its class name."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                a, bound = child.args, cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in child.decorator_list)
                name = cls.name if child.name == "__init__" else child.name
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((name, arg.arg, i - bound, child))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None, child))
                visit(child, None)
    visit(tree, None)
    return out


def _sets(call, param, index):
    """Whether the call passes `param`, by keyword, by position or through
    * or **."""
    return (any(kw.arg in (param, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or index is not None and len(call.args) > index)


def test_every_defaulted_parameter_is_set_by_a_caller():
    modules = _modules()
    calls = [node for tree in _callers(modules) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for tree in modules.values():
        for name, param, index, node in _defaulted(tree):
            own = set(ast.walk(node))
            if not any(
                    call not in own and name in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None))
                    and _sets(call, param, index) for call in calls):
                unset.append((name, param))
    assert sorted(unset) == sorted(UNSET)


def test_every_import_is_read():
    # names a module imports and never loads; a package's __init__ and
    # a module's __all__ re-export, and __future__ imports are directives
    idle = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                        *(ROOT / "bench").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)} | set(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                idle += [f"{path.relative_to(ROOT)}: {name}" for name in (
                    alias.asname or alias.name.partition(".")[0]
                    for alias in node.names) if name not in loaded]
    assert idle == []
