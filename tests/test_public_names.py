"""Every public name earns its place: a census of the modules' `__all__`."""

import ast
import importlib
import pathlib

import gkdvlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(gkdvlab.__file__).parent

# public names without a caller yet, kept because the planned run record
# (`run_record.json`) is to report the paper's hypotheses on Psi and the
# envelope tails
KEPT = {
    "check_hypotheses": "the run record reports the hypotheses on Psi",
    "HypothesesReport": "what check_hypotheses returns",
    "envelope_tail_monitor": "the run record reports the envelope tails",
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


def test_every_public_name_resolves_and_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = list(modules.values()) + [
        ast.parse(path.read_text()) for path in
        sorted((ROOT / "bench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]]
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
    assert sorted(set(idle) - set(KEPT)) == []
    assert set(KEPT) <= {n for names in exported.values() for n in names}

    # (c) the package re-exports only exported names
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    stray = [(node.module, alias.name) for node in init.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names
             if alias.name not in exported.get(node.module, ())]
    assert stray == []
