"""Every top-level function and class in ``src/outerfan`` is used somewhere
in ``src/``, ``scripts/`` or ``perfbench/``.

A name counts as used when something outside its own definition refers to
it: a name, an attribute, an import, or a string that is an identifier
(``perfbench/tracing.py`` names the functions it wraps by string, and the
package's ``__all__`` lists its exports by string).  Names are matched by
name alone, so a dead helper that shares its name with a used one goes
unseen; the tests do not count as users.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts", "perfbench")


def references(node):
    """The names that ``node`` and everything inside it refer to, counted."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found[sub.value] += 1
    return found


def scan():
    """The top-level definitions of ``src/outerfan`` and those with no user."""
    used = Counter()
    definitions = []  # (module file, name, references inside the definition)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used += references(tree)
            if path.parent.name != "outerfan":
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    definitions.append((path.name, node.name, references(node)))
    unused = [
        f"{module}: {name}"
        for module, name, inside in definitions
        if used[name] - inside[name] <= 0
    ]
    return {name for _, name, _ in definitions}, unused


def test_every_top_level_definition_has_a_user():
    defined, unused = scan()
    assert {"build_spqr", "recognize", "three_tree_peel", "Graph"} <= defined
    assert unused == []
