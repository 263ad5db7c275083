"""Spans around the calls into castream's layers, recorded from outside the program.

``Tracer.patch`` replaces every public function of the layer modules (the
names in each module's ``__all__``) and ``cli.main`` with a wrapper that
records a span: name, start, end and the span that was open when it began.
A wrapped function is replaced wherever the package holds a reference to
it, both in its own module and where another module imported it, so that
calls between layers are seen too.  ``restore`` puts the originals back.
Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

LAYERS = ("engine", "cipher", "bitio", "fips", "spectrum", "algebra", "attack")

# Work counted at a span, from the call's arguments.
WORK = {"engine.temporal_sequence": lambda a: a["config"].width * (a["length"] - 1)}

# name -> unit; the per-layer metrics, in the order they are printed.
PER_LAYER = {
    "engine.temporal_sequence.s": "s",
    "engine.ns_per_cell_step": "ns",
    "engine.evolve.s": "s",
    "cipher.keystream.self_s": "s",
    "cipher.vernam.s": "s",
    "bitio.format_bits.s": "s",
    "bitio.pack_bits.s": "s",
    "bitio.parse_bits.s": "s",
    "bitio.unpack_bits.s": "s",
    "bitio.diagram.s": "s",
    "fips.battery.s": "s",
    "spectrum.iterate_rule.s": "s",
    "spectrum.iterate_rule.calls": "count",
    "spectrum.walsh_transform.s": "s",
    "spectrum.walsh_transform.calls": "count",
    "spectrum.minmax_score.self_s": "s",
    "spectrum.scan_rules.self_s": "s",
    "spectrum.scan_report_csv.s": "s",
    "algebra.s": "s",
    "attack.trials": "count",
    "attack.forward_completion.s": "s",
    "attack.backward_completion.s": "s",
    "attack.verify_self_s": "s",
    "attack.us_per_trial": "us",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
}

# Inclusive time of the outermost spans among a set of names.
_INCLUSIVE = {
    "engine.temporal_sequence.s": {"engine.temporal_sequence"},
    "engine.evolve.s": {"engine.evolve"},
    "cipher.vernam.s": {"cipher.vernam_encrypt", "cipher.vernam_decrypt"},
    "bitio.format_bits.s": {"bitio.format_bits"},
    "bitio.pack_bits.s": {"bitio.pack_bits"},
    "bitio.parse_bits.s": {"bitio.parse_bits"},
    "bitio.unpack_bits.s": {"bitio.unpack_bits"},
    "bitio.diagram.s": {"bitio.diagram_text", "bitio.diagram_pbm"},
    "fips.battery.s": {"fips.fips_battery"},
    "spectrum.iterate_rule.s": {"spectrum.iterate_rule"},
    "spectrum.walsh_transform.s": {"spectrum.walsh_transform"},
    "spectrum.scan_report_csv.s": {"spectrum.scan_report_csv"},
    "attack.forward_completion.s": {"attack.forward_completion"},
    "attack.backward_completion.s": {"attack.backward_completion"},
    "algebra.s": {f"algebra.{n}" for n in ("affine_decomposition", "conjugate", "conjugate_reflect",
                                           "equivalence_class", "reflect")},
}
# Self time: the span's time minus the time of its child spans.
_SELF = {
    "cipher.keystream.self_s": "cipher.keystream",
    "spectrum.minmax_score.self_s": "spectrum.minmax_score",
    "spectrum.scan_rules.self_s": "spectrum.scan_rules",
    "attack.verify_self_s": "attack.attack",  # guess drawing and key verification
    "cli.self_s": "cli.main",
}


class Tracer:
    """Records spans while patched; computes the per-layer figures from them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "attack.attack" and kwargs.get("trace") is not None:
                kwargs["trace"] = self._wrap("cli.trace", kwargs["trace"])
            index = len(spans)
            amount = work(signature.bind(*args, **kwargs).arguments) if work else 0
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, amount])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def patch(self, package) -> None:
        """Wrap the layers' public functions and ``cli.main`` wherever the package refers to them."""
        # importlib, not getattr: the package re-exports a function named ``attack``
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in (*LAYERS, "cli")}
        wrappers = {}
        for short, module in modules.items():
            names = ["main"] if short == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def metrics(self, first: int) -> dict[str, float]:
        """Per-layer figures over the spans recorded since index ``first``."""
        spans = self.spans[first:]
        names = [s[0] for s in self.spans]
        duration = [s[2] - s[1] for s in self.spans]
        children = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]] += duration[i]

        def parent_name(s):
            return names[s[3]] if s[3] is not None else None

        out: dict[str, float] = {}
        for metric, group in _INCLUSIVE.items():
            out[metric] = sum(s[2] - s[1] for s in spans if s[0] in group and parent_name(s) not in group)
        for metric, name in _SELF.items():
            out[metric] = sum(duration[i] - children[i] for i in range(first, len(self.spans)) if names[i] == name)
        for name in ("spectrum.iterate_rule", "spectrum.walsh_transform"):
            out[f"{name}.calls"] = sum(1 for s in spans if s[0] == name)
        trials = sum(1 for s in spans if s[0] == "attack.forward_completion" and parent_name(s) == "attack.attack")
        out["attack.trials"] = trials
        attack_s = sum(s[2] - s[1] for s in spans if s[0] == "attack.attack")
        out["attack.us_per_trial"] = 1e6 * attack_s / trials if trials else 0.0
        cell_steps = sum(s[4] for s in spans if s[0] == "engine.temporal_sequence")
        out["engine.ns_per_cell_step"] = 1e9 * out["engine.temporal_sequence.s"] / cell_steps if cell_steps else 0.0
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                record = {"id": i, "name": name, "parent": parent, "start": start - origin, "end": end - origin}
                if work:
                    record["work"] = work
                handle.write(json.dumps(record) + "\n")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
