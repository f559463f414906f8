"""Every top-level name of the library is used somewhere.

Each ``def``, ``class`` and assigned name at the top level of a module under
``src/cellalg`` (dunder names aside) must occur as a whole word in the
sources, the tests, the benchmark, the README or ``pyproject.toml``, on some
line other than the one that defines it.  A name that fails this is dead
code, or a wrapper whose last caller has gone.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cellalg"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "cellbench",
            ROOT / "README.md", ROOT / "pyproject.toml"]
WORD = re.compile(r"\w+")


def top_level_names(tree):
    """(name, line) of each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def searched_files():
    for path in SEARCHED:
        if path.is_file():
            yield path
        else:
            yield from (p for p in sorted(path.rglob("*"))
                        if p.suffix in (".py", ".md", ".toml", ".json")
                        and "__pycache__" not in p.parts)


def test_every_top_level_name_is_used():
    words = Counter()
    lines = {}
    for path in searched_files():
        text = path.read_text(encoding="utf-8")
        words.update(WORD.findall(text))
        lines[path] = text.splitlines()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for name, lineno in top_level_names(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall(lines[module][lineno - 1]).count(name)
            if words[name] <= own:
                unused.append("{}.{}".format(module.stem, name))
    assert unused == []
