"""Wrap the public functions of every qentropy module and summarise per layer.

Wrapping happens from outside the library: each public function (and each
public classmethod) defined in a qentropy module gets one recording wrapper,
and that wrapper is bound under every name a caller looks up at call time:
the defining module, every module that imported the name with ``from ...
import``, the package namespace, and the ``harness.CHECKS`` table. The
eigensolver calls the library makes through ``np.linalg`` are the ``kernel``
layer. Everything is restored when the :class:`~spans.Patcher` exits.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
from typing import Any

import numpy as np

from spans import Patcher, SpanRecorder

MODULES = ("catalog", "channels", "cli", "entropy", "fileio", "harness", "rng", "states", "truncation")

# Per-element helpers called hundreds of thousands of times (json_ready
# recurses once per matrix entry); a span each would swamp the trace.
UNWRAPPED = frozenset({"as_density", "json_ready", "json_real", "single", "trial_seed"})

CHECK_NAMES = (
    "duality",
    "bound",
    "coherent-duality",
    "monotonicity",
    "concavity",
    "subadditivity",
    "formula-standard",
    "formula-coherent",
    "continuity",
)


def _span_name(module: str, attr: str) -> str:
    # the seeded draws belong to the states layer that consumes them
    return "states.random_draw" if module == "rng" else f"{module}.{attr}"


def _matrix_note(a: Any, *args: Any, **kwargs: Any) -> tuple[int, bool]:
    a = np.asarray(a)
    return int(a.shape[-1]), not np.iscomplexobj(a)


def _state_digest(rho: Any, *args: Any, **kwargs: Any) -> bytes:
    arr = np.ascontiguousarray(rho.entries if hasattr(rho, "entries") else rho.amplitudes)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{arr.dtype}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.digest()


def instrument(recorder: SpanRecorder, patcher: Patcher) -> int:
    """Bind recording wrappers for the whole library; returns the names patched."""
    package = importlib.import_module("qentropy")
    modules = {name: importlib.import_module(f"qentropy.{name}") for name in MODULES}

    wrappers: dict[Any, Any] = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if attr.startswith("_") or attr in UNWRAPPED:
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                name = _span_name(short, attr)
                note = _state_digest if name == "states.clamped_spectrum" else None
                wrappers[value] = recorder.wrap(value, name, note)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, raw in list(vars(value).items()):
                    if isinstance(raw, classmethod) and not cattr.startswith("_"):
                        name = f"{short}.{value.__name__}.{cattr}"
                        patcher.setattr(value, cattr, classmethod(recorder.wrap(raw.__func__, name)))

    patched = 0
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patcher.setattr(mod, attr, wrappers[value])
                patched += 1

    checks = modules["harness"].CHECKS
    for key, fn in list(checks.items()):
        patcher.setitem(checks, key, recorder.wrap(fn, f"harness.check.{key}"))
        patched += 1

    for attr in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, attr)
        patcher.setattr(np.linalg, attr, recorder.wrap(original, f"kernel.{attr}", _matrix_note))
        patched += 1
    return patched


# name -> (unit, better); the order here is the order BENCHMARK.json lists them
PER_LAYER: dict[str, tuple[str, str]] = {
    "kernel.eigh.calls": ("count", "lower"),
    "kernel.eigh.s": ("s", "lower"),
    "kernel.eigh.calls.gt400": ("count", "lower"),
    "kernel.eigh.s.gt400": ("s", "lower"),
    "kernel.eigh.calls.le16": ("count", "lower"),
    "kernel.eigh.s.le16": ("s", "lower"),
    "kernel.eigh.work_n3": ("n3", "lower"),
    "kernel.eigh.real_calls": ("count", "higher"),
    "kernel.eigvalsh.calls": ("count", "lower"),
    "kernel.eigvalsh.s": ("s", "lower"),
    "states.clamped_spectrum.calls": ("count", "lower"),
    "states.clamped_spectrum.s": ("s", "lower"),
    "states.clamped_spectrum.unique_ratio": ("ratio", "higher"),
    "states.partial_trace.calls": ("count", "lower"),
    "states.partial_trace.self_s": ("s", "lower"),
    "states.permute_subsystems.calls": ("count", "lower"),
    "states.permute_subsystems.self_s": ("s", "lower"),
    "states.random_draw.s": ("s", "lower"),
    "truncation.conditional_entropy_sweep.s": ("s", "lower"),
    "truncation.conditional_entropy_sweep.self_s": ("s", "lower"),
    "truncation.ProjectorSequence.from_state.s": ("s", "lower"),
    "entropy.relative_entropy_vs_product.calls": ("count", "lower"),
    "entropy.relative_entropy_vs_product.self_s": ("s", "lower"),
    "entropy.conditional_entropy.calls": ("count", "lower"),
    "entropy.conditional_entropy.self_s": ("s", "lower"),
    "entropy.von_neumann_entropy.calls": ("count", "lower"),
    "entropy.von_neumann_entropy.self_s": ("s", "lower"),
    "entropy.relative_entropy.calls": ("count", "lower"),
    "entropy.relative_entropy.self_s": ("s", "lower"),
    "channels.coherent_information.calls": ("count", "lower"),
    "channels.coherent_information.self_s": ("s", "lower"),
    "channels.purify.calls": ("count", "lower"),
    "channels.purify.self_s": ("s", "lower"),
    "channels.complementary.self_s": ("s", "lower"),
    **{f"harness.check.{name}.s": ("s", "lower") for name in CHECK_NAMES},
    "harness.self_s": ("s", "lower"),
    "harness.resolve_state.s": ("s", "lower"),
    "fileio.load_state.s": ("s", "lower"),
    "fileio.dumps_document.s": ("s", "lower"),
    "fileio.save_sweep_csv.s": ("s", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Every span-derived PER_LAYER value for one traced invocation.

    ``fileio.bytes_written`` and ``trace.overhead_s`` are not span-derived;
    the caller measures them. Layers the invocation never entered read 0.
    """
    summary = recorder.summary()
    selfs = recorder.self_times()
    durations = recorder.durations()
    out: dict[str, float] = {}

    for key, unit in PER_LAYER.items():
        if key in ("fileio.bytes_written", "trace.overhead_s") or key.startswith("kernel.eigh."):
            continue
        base, _, field = key.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[key] = summary.get(base, {}).get(field, 0)

    eigh = [i for i, name in enumerate(recorder.names) if name == "kernel.eigh"]
    sizes = [recorder.notes[i][0] for i in eigh]
    out["kernel.eigh.calls"] = len(eigh)
    out["kernel.eigh.s"] = sum(durations[i] for i in eigh)
    out["kernel.eigh.calls.gt400"] = sum(1 for n in sizes if n > 400)
    out["kernel.eigh.s.gt400"] = sum(durations[i] for i, n in zip(eigh, sizes) if n > 400)
    out["kernel.eigh.calls.le16"] = sum(1 for n in sizes if n <= 16)
    out["kernel.eigh.s.le16"] = sum(durations[i] for i, n in zip(eigh, sizes) if n <= 16)
    out["kernel.eigh.work_n3"] = sum(n**3 for n in sizes)
    out["kernel.eigh.real_calls"] = sum(1 for i in eigh if recorder.notes[i][1])

    digests = [recorder.notes[i] for i, name in enumerate(recorder.names) if name == "states.clamped_spectrum"]
    out["states.clamped_spectrum.unique_ratio"] = len(set(digests)) / len(digests) if digests else 0.0
    out["harness.self_s"] = sum(
        s for name, s in zip(recorder.names, selfs) if name.startswith("harness.")
    )
    out["trace.spans"] = len(recorder)
    return out
