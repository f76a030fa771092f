"""The package's public names resolve, its scripts run, and every
name it defines is used.

No other test imports ``from boolprop import *`` or starts the scripts,
so a stale name in ``__all__`` or a script importing a removed function
would otherwise break them unnoticed.  Likewise nothing else notices a
module-level function, class or constant that nothing refers to, or an
import that a deletion left unused.
"""

import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import boolprop

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_all_and_the_scripts_exit_0():
    namespace: dict = {}
    exec("from boolprop import *", namespace)
    assert set(boolprop.__all__) <= namespace.keys()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for script, *args in (["demo_propagation.py"], ["run_verifications.py", "--budget", "5"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (script, done.stderr)
        outputs[script] = done.stdout
    # the demo's walk-through, line for line as first printed
    demo = outputs["demo_propagation.py"]
    assert demo.count("\n") == 35
    assert hashlib.sha256(demo.encode()).hexdigest() == (
        "5619d461c8868cca1b0e9f68241ae0ee42c129c220a1fa18ee6d9ee26db80a76"
    )


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_top_level_name_in_src_is_referenced():
    """Each name a module of src/boolprop defines at top level occurs as a
    word at least once more in src/, tests/, scripts/ or perfbench/."""
    text = "\n".join(
        path.read_text()
        for folder in ("src", "tests", "scripts", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
    )
    unreferenced = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "boolprop").glob("*.py"))
        for name in _top_level_names(ast.parse(path.read_text()))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert unreferenced == []


def _unused_imports(tree: ast.Module):
    """The names a module imports and never reads, ``__all__`` counting as
    a read of each name it lists."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_in_src_imports_a_name_it_never_uses():
    unused = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "boolprop").glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []
