"""The benchmark's span tracer patches vqstego functions by name.

`perfbench/tracer.py` looks each entry of its TARGETS up as
``owner.__dict__[attr]``, so renaming or deleting a traced function breaks
the traced benchmark run. This test keeps that list resolvable.
"""

import importlib.util
from pathlib import Path

import vqstego

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = getattr(vqstego, module_name, None)
        owner_name, _, attr = path.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert tracer.TARGETS and not missing
