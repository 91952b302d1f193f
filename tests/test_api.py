"""The public API: what the package exports, and what the benchmark harness reads.

``perfbench/`` wraps the functions named in ``spans.TARGETS`` for a
traced run and calls the library directly in its ``measure`` workload.
Its own tests are not part of this suite, so a removed or renamed target
would otherwise surface only as a failed traced run.

Every public method and property of an exported class must have a
consumer outside the tests of that method: the package itself, the
benchmark harness, the tools or the acceptance criteria.
"""

import glob
import importlib
import importlib.util
import inspect
import os
import re
from unittest import mock

import numpy as np
import pytest

import metrolab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded by path."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_perfbench("spans")

CONSUMER_FILES = [
    *glob.glob(os.path.join(ROOT, "src", "metrolab", "*.py")),
    *glob.glob(os.path.join(PERFBENCH, "**", "*.py"), recursive=True),
    *glob.glob(os.path.join(ROOT, "tools", "*.py")),
    os.path.join(ROOT, "tests", "test_acceptance.py"),
]
MEMBERS = [
    (cls_name, attr)
    for cls_name in metrolab.__all__
    if inspect.isclass(cls := getattr(metrolab, cls_name))
    for attr, value in vars(cls).items()
    if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
]


@pytest.mark.parametrize(
    "name,module_name,path", SPANS.TARGETS, ids=[path for _, _, path in SPANS.TARGETS]
)
def test_every_span_target_resolves(name, module_name, path):
    """Each target resolves as `spans.instrument` resolves it; a method, from its class's dict."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, f"{name}: {path} is not defined on {owner_name} itself"
        target = owner.__dict__[attr]
    else:
        target = getattr(module, attr)
    assert callable(target), f"{name}: {module_name}.{path} is not callable"


def test_all_names_exactly_the_public_names():
    public = {
        key for key, value in vars(metrolab).items()
        if not key.startswith("_") and not inspect.ismodule(value)
    }
    assert len(metrolab.__all__) == len(set(metrolab.__all__))
    assert set(metrolab.__all__) == public | {"__version__"}


def test_the_measure_chain_runs_and_passes_its_gate():
    workloads = load_perfbench("workloads")
    block = workloads.make_blocks("measure", 0, 1)[0]
    op = workloads.prepare(min(block, key=lambda op: op["n_total"]), "")
    result = workloads.execute(op, metrolab, None)
    assert workloads.check(op, result, "", "") == (1, None)


def test_a_measure_block_decomposes_each_sector_four_times():
    """One eigh per K-block of the gate's J_x, and per sector of rho (a 1x1 Gram: one column
    per sector), of J_n and of the SLD: fisher_information reads the J_n spectrum that
    optimal_povm kept on the generator."""
    workloads = load_perfbench("workloads")
    block = workloads.make_blocks("measure", 0, 1)[0]
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        for op in block:
            workloads.execute(workloads.prepare(op, ""), metrolab, None)
    assert eigh.call_count == 4 * sum(op["n_total"] + 1 for op in block) == 120


@pytest.mark.parametrize("cls_name,attr", MEMBERS, ids=[f"{c}.{a}" for c, a in MEMBERS])
def test_every_public_method_has_a_consumer(cls_name, attr):
    """`.attr` is read somewhere in CONSUMER_FILES, outside backquoted text.

    Its own `def attr` line never matches, and neither does a docstring
    or comment that names it in backquotes.
    """
    use = re.compile(rf"\.{attr}\b")
    for path in CONSUMER_FILES:
        with open(path, encoding="utf-8") as handle:
            if use.search(re.sub(r"`[^`\n]*`", "", handle.read())):
                return
    pytest.fail(f"{cls_name}.{attr} has no consumer in src/metrolab, perfbench, tools "
                "or tests/test_acceptance.py")
