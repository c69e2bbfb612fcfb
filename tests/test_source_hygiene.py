"""Every import in ``src/rwre_lab`` is used, and every public name serves a run or checks one.

The checks read the source with the standard library's ``ast``, so they need no linter.  A public name (one in
``rwre_lab.__all__``) pays for itself when code in ``src/`` uses it outside its own definition, when the acceptance
suite imports it, or when a named test uses it as the oracle of a run.
"""

import ast
from pathlib import Path

import pytest

import rwre_lab

SRC = Path(rwre_lab.__file__).parent
TESTS = Path(__file__).parent

# (module, name): imports that no code in the module reads, each with the reason it stays
UNUSED_IMPORTS_KEPT = {
    ("cli", "pooled_increments"): "perfbench/tracer.py wraps cli.pooled_increments to time the stats layer",
}

# public name -> the test that checks a run against it
ORACLES = {
    "simulate": "test_kernel.py",  # the lockstep ensemble kernels against one walk at a time
    "slab_exit_side": "test_walk.py",  # test_tally_matches_per_walk_classification: run_slab_ensemble's tallies
    "exit_distribution": "test_oracle.py",  # the oracle's exit laws sum to 1
}


def modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(SRC.glob("*.py"))}


def imported(tree: ast.Module) -> dict[str, ast.AST]:
    """The names a module's imports bind, each with its import statement; ``__future__`` binds none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node
    return out


def read_names(node: ast.AST) -> set[str]:
    """The names read anywhere under ``node``; ``np.x`` reads ``np``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    raise AssertionError("rwre_lab/__init__.py has no __all__")


def unused_imports(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    out = set()
    for mod, tree in trees.items():
        used = set(dunder_all(tree)) if mod == "__init__" else read_names(tree)
        out |= {(mod, name) for name in imported(tree) if name not in used}
    return out


def users_in_src(trees: dict[str, ast.Module], name: str) -> set[str]:
    """The modules of ``src/rwre_lab`` other than ``__init__`` that use ``name`` outside its own definition.

    A module uses a name by reading it or by importing it; the module that defines the name uses it only where its
    own ``def`` or ``class`` is not around the use.
    """
    users = set()
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        if name in imported(tree):
            users.add(mod)
        for node in tree.body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            if not defines and name in read_names(node):
                users.add(mod)
    return users


def acceptance_imports() -> set[str]:
    return set(imported(ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))))


def test_no_unused_import():
    dead = unused_imports(modules())
    assert dead == set(UNUSED_IMPORTS_KEPT), "imports no code reads: " + ", ".join(
        f"{mod}.{name}" for mod, name in sorted(dead - set(UNUSED_IMPORTS_KEPT))
    )


def test_every_export_resolves_once():
    names = dunder_all(modules()["__init__"])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rwre_lab, n)] == []


def test_every_export_serves_a_run_or_checks_one():
    trees, acceptance = modules(), acceptance_imports()
    idle = [
        n
        for n in dunder_all(trees["__init__"])
        if not users_in_src(trees, n) and n not in acceptance and n not in ORACLES
    ]
    assert idle == [], f"public names no run, acceptance test or named oracle test uses: {idle}"


@pytest.mark.parametrize("name, test", sorted(ORACLES.items()))
def test_oracle_tests_exist_and_use_their_name(name, test):
    assert name in dunder_all(modules()["__init__"])
    assert (TESTS / test).is_file()
    assert name in read_names(ast.parse((TESTS / test).read_text(encoding="utf-8")))
