"""The benchmark drives vqstego through names and calls it cannot change.

`perfbench/tracer.py` looks each entry of its TARGETS up as
``owner.__dict__[attr]``, so renaming or deleting a traced function breaks
the traced benchmark run, and `perfbench/workloads.py` and `setup_probe.py`
build their messages with the `BitString` constructor. The tracer's
observers and the workloads' checks also read result fields and bind the
codec walks' arguments by name. These tests keep all of that working, so an
API change that would break the benchmark fails here.
"""

import importlib.util
import inspect
import pkgutil
import sys
from dataclasses import fields
from pathlib import Path

import vqstego
from vqstego import codec
from vqstego.bits import BitString, KeyedStream, StegoKey
from vqstego.ecc import EccEncodeResult, ErrorRecordList
from vqstego.optimizer import OptimReport
from vqstego.pipeline import EmbedResult, ExtractResult, RunMetrics
from vqstego.security import SecurityReport
from vqstego.text_channel import StegoText
from vqstego.token_model import Condition, ModelSpec

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


def test_result_fields_the_benchmark_reads():
    read = {
        # tracer observers
        OptimReport: {"steps_run"},
        EccEncodeResult: {"corrected_count", "record_list"},
        ErrorRecordList: {"truncated_at"},
        # workloads: NoisyRoundtrip.op, _quality and _check_scored
        RunMetrics: {"message_bits", "recovered_exact", "r_q_stage1",
                     "r_q_stage2", "r_q_stage3", "cap"},
        EmbedResult: {"image", "text"},
        StegoText: {"tokens"},
        ExtractResult: {"message"},
        # workloads: SecurityBattery.op
        SecurityReport: {"pooled_p", "ks_p"},
    }
    missing = [f"{cls.__name__}.{name}" for cls, names in read.items()
               for name in sorted(names - {f.name for f in fields(cls)})]
    assert not missing


def test_walk_parameters_the_tracer_binds():
    tracer = _load("tracer")
    for walk in tracer.WALKS:
        module_name, _, name = walk.partition(".")
        params = inspect.signature(
            getattr(getattr(vqstego, module_name), name)).parameters
        assert {"model", "condition", "key", "domain"} <= set(params), walk


def test_every_codec_step_calls_step_capacity_once(monkeypatch):
    # the tracer's codec.capacity_bits_per_step and codec.payload_share
    # divide by the codec.step_capacity calls, so each walk must make
    # exactly one call per step, through the module attribute
    calls = []
    step_capacity = codec.step_capacity

    def counting(dist, r):
        calls.append(r)
        return step_capacity(dist, r)

    monkeypatch.setattr(codec, "step_capacity", counting)
    model = ModelSpec(vocab_size=256, top_k=32, seed=1)
    condition, key, steps = Condition(5), StegoKey(bytes(range(32))), 40

    def run_walk(walk, *args):
        calls.clear()
        result = walk(model, condition, *args)
        assert len(calls) == steps, walk.__name__
        return result

    message = KeyedStream(key.with_domain("m")).next_bits(60)
    tokens, _, _ = run_walk(codec.embed_sequence, message, key, steps,
                            "image")
    run_walk(codec.sequence_capacity, key, steps, "image")
    run_walk(codec.extract_sequence, tokens, key, "image")
    run_walk(codec.copy_index_trace, tokens, key, "image")


def test_package_namespace():
    # the end-to-end entry points; every layer stays reachable as
    # vqstego.<module>, which the tracer's getattr lookups rely on
    assert sorted(vqstego.__all__) == sorted([
        "BitString", "StegoKey", "PipelineConfig", "default_config",
        "load_config", "Pipeline", "derive_key", "embed_message",
        "extract_message", "benchmark_run", "run_security_test",
        "parse_channel", "StegoError"])
    assert all(hasattr(vqstego, name) for name in vqstego.__all__)
    modules = {m.name for m in pkgutil.iter_modules(vqstego.__path__)}
    assert all(hasattr(vqstego, name) for name in modules - {"cli"})
