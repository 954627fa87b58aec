"""Span tracer that wraps vqstego's public functions from outside the package.

Nothing under ``src/`` changes: `Tracer.installed()` swaps each traced
function for a timing wrapper, in its defining module or class and in every
``vqstego`` module namespace that imported it by name (``pipeline``,
``security`` and ``text_channel`` bind ``from .x import y`` names at import
time, so patching only the defining module would lose their spans). The
originals are restored on exit.

Each wrapped call records a span: name, start, end, parent span and the
operation (message) id. Functions called once per autoregressive step are
aggregated per (parent name, name) instead, so memory and overhead stay
bounded. Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, aggregated). Aggregated functions run once per
# token step; everything else is recorded as an individual span.
TARGETS = (
    ("optimizer", "optimize_tokens", False),
    ("optimizer", "loss_and_gradient", False),
    ("channel", "apply", False),
    ("channel", "apply_smooth", False),
    ("channel", "apply_smooth_with_tape", False),
    ("channel", "backward", False),
    ("vq", "Tokenizer.decode_continuous", False),
    ("vq", "Tokenizer.grad_latents", False),
    ("vq", "Tokenizer.encode", False),
    ("vq", "Tokenizer.quantize", False),
    ("vq", "Tokenizer.decode", False),
    ("token_model", "next_distribution", True),
    ("codec", "step_capacity", True),
    ("codec", "embed_sequence", False),
    ("codec", "extract_sequence", False),
    ("codec", "sample_sequence", False),
    ("codec", "sequence_capacity", False),
    ("codec", "copy_index_trace", False),
    ("bits", "KeyedStream.next_uniform", True),
    ("text_channel", "embed_ecc", False),
    ("text_channel", "extract_ecc", False),
    ("ecc", "ecc_encode", False),
    ("ecc", "ecc_decode", False),
    ("pipeline", "Pipeline.from_config", False),
    ("pipeline", "embed_message", False),
    ("pipeline", "extract_message", False),
    ("pipeline", "score_run", False),
    ("security", "run_security_test", False),
)

WALKS = ("codec.embed_sequence", "codec.extract_sequence",
         "codec.sample_sequence", "codec.sequence_capacity",
         "codec.copy_index_trace")

# Methods whose span names drop the class, as the layer metrics name them.
_SHORT_NAMES = {"vq.Tokenizer." + m: "vq." + m for m in
                ("decode_continuous", "grad_latents", "encode", "quantize",
                 "decode")}

OP_SPAN = "perfbench.op"


class _Frame:
    __slots__ = ("span_id", "name", "child_s", "capacity")

    def __init__(self, span_id: int, name: str):
        self.span_id = span_id
        self.name = name
        self.child_s = 0.0
        self.capacity = 0


class Tracer:
    """In-memory spans, per-(parent, name) aggregates and layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, name, start, end, op)
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self.sequences: set = set()
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._op = None

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, start: float, end: float,
              aggregate: bool) -> None:
        self._stack.pop()
        duration = end - start
        own = duration - frame.child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        self.calls[frame.name] += 1
        self.self_s[frame.name] += own
        self.total_s[frame.name] += duration
        if aggregate:
            agg = self.aggregates[(parent.name if parent else None,
                                   frame.name)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans.append((frame.span_id,
                               parent.span_id if parent else None,
                               frame.name, start, end, self._op))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one closed-loop operation; children carry its id."""
        self._op = op_id
        frame = self._enter(OP_SPAN)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter(), aggregate=False)
            self._op = None

    def _wrap(self, name: str, fn, aggregate: bool):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if name in WALKS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, start, perf_counter(), aggregate)
                if type(exc).__name__ == "BudgetExceeded":
                    tracer.counters[name + ".budget_exceeded"] += 1
                raise
            tracer._exit(frame, start, perf_counter(), aggregate)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.counters["codec.walks"] += 1
                tracer.sequences.add((bound["model"].seed,
                                      bound["condition"].id,
                                      bound["key"].seed, bound["domain"]))
            if observe is not None:
                observe(tracer, frame, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target in every vqstego namespace; restore on exit."""
        import vqstego
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "vqstego" or n.startswith("vqstego."))]
        restore: list[tuple] = []
        try:
            for module_name, path, aggregate in TARGETS:
                module = getattr(vqstego, module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[attr]
                name = _SHORT_NAMES.get(f"{module_name}.{path}",
                                        f"{module_name}.{path}")
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__,
                                                     aggregate))
                    setattr(owner, attr, wrapped)
                    restore.append((owner, attr, raw))
                    continue
                wrapped = self._wrap(name, raw, aggregate)
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, raw))
                if owner_name:
                    continue
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is raw and other is not module:
                            setattr(other, key, wrapped)
                            restore.append((other, key, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Spans as JSONL, then one line per aggregated (parent, name)."""
        with open(path, "w") as f:
            for span_id, parent, name, start, end, op in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent,
                                    "name": name, "start": start,
                                    "end": end, "op": op}) + "\n")
            for (parent, name), (calls, total, own) in sorted(
                    self.aggregates.items(), key=lambda kv: str(kv[0])):
                f.write(json.dumps({"aggregate": name, "parent": parent,
                                    "calls": calls, "total_s": total,
                                    "self_s": own}) + "\n")


# -- observers: counts read from return values at the layer boundary --------

def _observe_optimize(tracer, frame, args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    steps = result[1].steps_run
    tracer.counters["optimizer.steps"] += steps
    if steps < config.steps:
        tracer.counters["optimizer.plateau_stops"] += 1


def _observe_step_capacity(tracer, frame, args, kwargs, result):
    tracer.counters["codec.capacity_bits"] += result
    # embed_step is not traced, so an embedding walk is the direct parent
    if tracer._stack and tracer._stack[-1].name == "codec.embed_sequence":
        tracer._stack[-1].capacity += result


def _observe_embed_sequence(tracer, frame, args, kwargs, result):
    tracer.counters["codec.embedded_bits"] += result[1]
    tracer.counters["codec.embed_capacity_bits"] += frame.capacity


def _observe_ecc_encode(tracer, frame, args, kwargs, result):
    tracer.counters["ecc.corrected"] += result.corrected_count
    if result.record_list.truncated_at is not None:
        tracer.counters["ecc.truncated"] += 1


_OBSERVERS = {
    "optimizer.optimize_tokens": _observe_optimize,
    "codec.step_capacity": _observe_step_capacity,
    "codec.embed_sequence": _observe_embed_sequence,
    "ecc.ecc_encode": _observe_ecc_encode,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) named ``<module>.<function>.<stat>``."""
    out: dict[str, tuple[float, str]] = {}
    for module_name, path, _ in TARGETS:
        name = _SHORT_NAMES.get(f"{module_name}.{path}",
                                f"{module_name}.{path}")
        out[name + ".calls"] = (tracer.calls.get(name, 0), "count")
        out[name + ".self_s"] = (tracer.self_s.get(name, 0.0), "s")
    c = tracer.counters
    calls = tracer.calls
    opt_calls = calls.get("optimizer.optimize_tokens", 0)
    encodes = calls.get("ecc.ecc_encode", 0)
    out.update({
        "optimizer.steps_run_mean": (
            _ratio(c["optimizer.steps"], opt_calls), "count"),
        "optimizer.ms_per_step": (1e3 * _ratio(
            tracer.total_s.get("optimizer.optimize_tokens", 0.0),
            c["optimizer.steps"]), "ms"),
        "optimizer.plateau_stop_share": (
            _ratio(c["optimizer.plateau_stops"], opt_calls), "ratio"),
        "token_model.next_distribution.us_per_call": (1e6 * _ratio(
            tracer.self_s.get("token_model.next_distribution", 0.0),
            calls.get("token_model.next_distribution", 0)), "us"),
        "codec.walks_per_sequence": (
            _ratio(c["codec.walks"], len(tracer.sequences)), "count"),
        "codec.capacity_bits_per_step": (_ratio(
            c["codec.capacity_bits"], calls.get("codec.step_capacity", 0)),
            "bits"),
        "codec.payload_share": (_ratio(c["codec.embedded_bits"],
                                       c["codec.embed_capacity_bits"]),
                                "ratio"),
        "text_channel.budget_retry_share": (_ratio(
            c["text_channel.embed_ecc.budget_exceeded"],
            calls.get("text_channel.embed_ecc", 0)), "ratio"),
        "ecc.corrected_mean": (_ratio(c["ecc.corrected"], encodes), "count"),
        "ecc.truncated_share": (_ratio(c["ecc.truncated"], encodes), "ratio"),
    })
    return out


def module_self_s(tracer: Tracer) -> dict[str, float]:
    """Self time summed per top-level module name (``perfbench`` included)."""
    out: dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)
