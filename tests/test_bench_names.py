"""The glauberlab names the benchmark harness looks up must exist.

``perfbench/layers.py`` is loaded read-only by path; a rename or deletion
in the package then fails here rather than breaking the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
from test_dynamics import count_law_builds, skeleton_instance

import glauberlab as gl
from glauberlab import dynamics, zoo

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(load_layers().SPANS))
def test_span_targets_exist(name):
    attr = name.split(".", 1)[1]
    for holder in load_layers().SPANS[name]:
        module = importlib.import_module(f"glauberlab.{holder}")
        assert callable(getattr(module, attr, None)), f"{holder}.{attr}"


def test_suite_targets_exist():
    assert set(load_layers().SUITES) <= set(zoo.SUITES)


@pytest.mark.parametrize("module, attr", [("dynamics", "run_block_chain"),
                                          ("dynamics", "read_checkpoint"),
                                          ("cli", "main")])
def test_called_names_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"glauberlab.{module}"),
                            attr, None))


def test_block_chain_builds_each_law_once(monkeypatch):
    # the traced blocks run counts block_step calls and law builds at
    # these module attributes; the chain must still go through them
    calls = []
    step = dynamics.block_step

    def counted_step(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "block_step", counted_step)
    builds = count_law_builds(monkeypatch)
    g, part = skeleton_instance()
    dynamics.run_block_chain(gl.coloring_model(4), g, part,
                             (0, 1, 0, 1, 1, 1, 0, 1, 0, 1), 200, seed=5)
    assert len(calls) == 200
    assert {name for name, _, _ in builds} == {"skeleton_joint",
                                               "build_tree_tables"}
    assert len(builds) == len(set(builds))
