"""The package's public exports match what its users use."""

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
