"""The package's public exports match what its users use, and the package
defines nothing that only the tests use."""

import ast
import inspect
import tokenize
from pathlib import Path

import dustpipe

ROOT = Path(__file__).resolve().parent.parent


def names_in(path: Path) -> set[str]:
    """Every name in ``path``'s code, not in its comments or strings."""
    with open(path, "rb") as f:
        return {tok.string for tok in tokenize.tokenize(f.readline) if tok.type == tokenize.NAME}


def test_every_export_is_used_by_the_cli_a_demo_or_another_test():
    exports = {name for name, value in vars(dustpipe).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    users = [ROOT / "src" / "dustpipe" / "cli.py", *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "tests").glob("*.py") if p != Path(__file__).resolve())]
    unused = exports - set().union(*map(names_in, users))
    assert exports and not unused, sorted(unused)


def package_trees() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "src" / "dustpipe").glob("*.py"))}


def names_used(tree: ast.AST) -> set[str]:
    """Names that code in ``tree`` reads, imports or takes as an attribute,
    and those in the code strings it passes to ``run_fresh``, which runs
    them in a fresh interpreter.  A definition's own name is none of these."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "run_fresh"):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        used |= names_used(ast.parse(part.value))
                    except SyntaxError:
                        pass
    return used


def test_every_top_level_definition_is_used_by_package_code():
    # a helper that only the tests call is code the program does not need
    trees = package_trees()
    used = set().union(*map(names_used, trees.values()))
    defined = {(path.name, node.name) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in used)
    assert defined and not unused, unused
