"""The part of the ``cfmimo`` API that the benchmark harness uses.

The scripts in ``perfbench/`` import names from the package and read attributes
of its modules; a refactor that drops one of them would break the benchmark
but no other test. Each script (not the frozen simulator copy under
``perfbench/frozen``) is parsed, and every such name must resolve in the
package under test.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def cfmimo_references(tree: ast.AST) -> list:
    """(line, dotted name) of every cfmimo name a module imports or reads as an
    attribute of a name it imported from cfmimo."""
    bound = {}  # local name -> the dotted cfmimo name it is bound to
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cfmimo":
                    refs.append((node.lineno, alias.name))
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["cfmimo"] = "cfmimo"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "cfmimo":
            for alias in node.names:
                refs.append((node.lineno, f"{node.module}.{alias.name}"))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                refs.append((node.lineno, ".".join([bound[base.id], *reversed(chain)])))
    return refs


def unresolved(dotted: str) -> str | None:
    """The first part of ``dotted`` that a cfmimo module lacks, else None.

    Attributes of objects other than modules (fields of a class, say) are not
    followed.
    """
    obj = importlib.import_module("cfmimo")
    parts = dotted.split(".")
    for depth, part in enumerate(parts[1:], start=2):
        if not isinstance(obj, types.ModuleType):
            return None
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:depth]))
        except ModuleNotFoundError:
            return ".".join(parts[:depth])
    return None


def test_scripts_found():
    assert {"bench.py", "tracing.py", "workloads.py"} <= {path.name for path in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_cfmimo_name_resolves(script):
    refs = cfmimo_references(ast.parse(script.read_text(), filename=str(script)))
    missing = [(line, dotted, unresolved(dotted)) for line, dotted in refs if unresolved(dotted)]
    assert not missing, f"{script.name} uses cfmimo names that do not exist: {missing}"


def test_scan_flags_missing_names():
    source = (
        "import cfmimo\n"
        "from cfmimo import combining as c\n"
        "from cfmimo.combining import gain_moments, no_such_name\n"
        "c.second_stage, cfmimo.simulate.run_episode, cfmimo.simulate.no_such_attribute\n"
    )
    refs = {dotted for _, dotted in cfmimo_references(ast.parse(source))}
    assert "cfmimo.combining.second_stage" in refs and "cfmimo.simulate.run_episode" in refs
    assert {dotted for dotted in refs if unresolved(dotted)} == {
        "cfmimo.combining.no_such_name", "cfmimo.simulate.no_such_attribute"
    }
