"""The part of the ``cfmimo`` API that the benchmark harness uses.

The scripts in ``perfbench/`` import names from the package and read attributes
of its modules; a refactor that drops one of them would break the benchmark
but no other test. Each script (not the frozen simulator copy under
``perfbench/frozen``) is parsed, and every such name must resolve in the
package under test. The scan does not follow fields of objects, so the traced
loop of ``perfbench/tracing.py`` also runs here, on the tiny workloads, and must
agree with ``run_episode`` bit for bit.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from cfmimo import run_episode
from cfmimo.simulate import campaign_cells

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


def _script(name: str):
    """A perfbench script imported as it stands, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tiny_jobs(workloads):
    """(workload, config, strategy, threshold, speed, setup) of every episode the traced
    benchmark runs at tiny scale: each traced episode, and each desk_sweep campaign cell."""
    jobs = []
    for name in workloads.NAMES:
        w = workloads.build(name, "tiny")
        cfg = w.with_seed(workloads.DEFAULT_SEED)
        if w.kind == "campaign":
            cells = campaign_cells(cfg, w.strategies, [cfg.handover.threshold_db], w.speeds)
            jobs += [(name, cfg, *cell, setup) for cell in cells for setup in range(cfg.n_setups)]
        else:
            jobs += [(name, cfg, w.strategy, w.threshold_db, w.speed_kmh, s) for s in range(w.traced_episodes)]
    return jobs


def test_traced_loop_matches_run_episode():
    tracing, workloads = _script("tracing"), _script("workloads")
    tracer = tracing.Tracer()
    probe_rng = np.random.default_rng(0)
    jobs = _tiny_jobs(workloads)
    assert {job[0] for job in jobs} == set(workloads.NAMES)
    for name, cfg, strategy, threshold, speed, setup in jobs:
        traced = tracing.traced_episode(cfg, setup, strategy, threshold, speed, tracer, probe_rng)
        program = run_episode(cfg, setup, strategy=strategy, threshold_db=threshold, speed_kmh=speed)
        problems = tracing.compare_episodes(traced, program)
        assert not problems, f"{name} {strategy}/{threshold:g} dB/{speed:g} km/h/setup {setup}: {problems}"
    assert tracer.gauges["combining.moment_bytes"] > 0
