"""The benchmark drives vqstego through names and calls it cannot change.

`perfbench/tracer.py` looks each entry of its TARGETS up as
``owner.__dict__[attr]``, so renaming or deleting a traced function breaks
the traced benchmark run, and `perfbench/workloads.py` and `setup_probe.py`
build their messages with the `BitString` constructor. These tests keep
both working, so an API change that would break the benchmark fails here.
"""

import importlib.util
import sys
from pathlib import Path

import vqstego
from vqstego.bits import BitString

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses in workloads.py look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load("tracer")
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = getattr(vqstego, module_name, None)
        owner_name, _, attr = path.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert tracer.TARGETS and not missing


def test_benchmark_messages_build():
    # workloads.make_message: a BitString from a generator of ints
    workloads = _load("workloads")
    message = workloads.make_message("noisy-roundtrip", 1, 0, 500)
    assert len(message) == 500
    assert message == workloads.make_message("noisy-roundtrip", 1, 0, 500)
    assert message != workloads.make_message("noisy-roundtrip", 1, 1, 500)
    # setup_probe.set_up: a BitString from a list
    probe = BitString([1, 0] * 8)
    assert len(probe) == 16
    assert probe == BitString.from01("10" * 8)
