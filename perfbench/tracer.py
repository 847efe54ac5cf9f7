"""Span tracer for discotrans layers, applied from outside the library.

Each traced layer function is replaced, for as long as the tracer is
installed, at every name a ``discotrans`` module binds it to: a function
imported with ``from .grammar import reduce_search`` is looked up through
``discotrans.dictionary.reduce_search`` by its caller, so that is the name
that must be wrapped.  Every call records a span (name, start, end, parent
id) in compact in-memory arrays; ``write_spans`` saves them when the run
ends.  Self time is a span's duration minus the time its child spans
cover.  Counters that need a call's arguments or result (bytes moved,
reductions found) are updated by per-layer hooks.

A layer function that the library no longer has is skipped, and its
metrics then read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _contract_bytes(tracer, args, result):
    tracer.counters["semantics.contract.bytes_in"] += args[1].nbytes


def _tensor_product_bytes(tracer, args, result):
    tracer.counters["semantics.tensor_product.bytes_out"] += result.array.nbytes


def _alpha_bytes(tracer, args, result):
    tracer.counters["translation.alpha_component.bytes_out"] += result.nbytes
    key = "translation.alpha_component.max_bytes"
    tracer.counters[key] = max(tracer.counters[key], result.nbytes)


def _search_outcome(tracer, args, result):
    if result:
        tracer.counters["grammar.reduce_search.hits"] += 1
    tracer.counters["grammar.reductions_found"] += len(result)
    if tracer.is_open("lexicon.phrase_meaning"):
        tracer.counters["lexicon.searches_in_phrase_meaning"] += 1


def _distance_outcome(tracer, args, result):
    if tracer.is_open("dictionary.build_dictionary"):
        tracer.counters["dictionary.distances"] += 1


def _entries_kept(tracer, args, result):
    tracer.counters["dictionary.entries_kept"] += len(result)


# (module, function, span name, hook).  Several functions may share a span
# name: both file loaders count as the one ``io.load`` layer.
LAYERS = [
    ("discotrans.cli", "main", "cli.main", None),
    ("discotrans.grammar", "reduce_search", "grammar.reduce_search", _search_outcome),
    ("discotrans.semantics", "tensor_product", "semantics.tensor_product", _tensor_product_bytes),
    ("discotrans.semantics", "_contract", "semantics.contract", _contract_bytes),
    ("discotrans.semantics", "apply_reduction", "semantics.apply_reduction", None),
    ("discotrans.product_space", "ps_tensor", "product_space.ps_tensor", None),
    ("discotrans.product_space", "frobenius_distance", "product_space.frobenius_distance",
     _distance_outcome),
    ("discotrans.lexicon", "lex_phrase", "lexicon.lex_phrase", None),
    ("discotrans.lexicon", "phrase_meaning", "lexicon.phrase_meaning", None),
    ("discotrans.translation", "alpha_component", "translation.alpha_component", _alpha_bytes),
    ("discotrans.translation", "translate_object", "translation.translate_object", None),
    ("discotrans.translation", "check_naturality", "translation.check_naturality", None),
    ("discotrans.dictionary", "build_dictionary", "dictionary.build_dictionary", _entries_kept),
    ("discotrans.io", "load_lexicon", "io.load", None),
    ("discotrans.io", "load_translation", "io.load", None),
    ("discotrans.io", "dictionary_to_rows", "io.dictionary_to_rows", None),
]


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self) -> None:
        self.names = list(dict.fromkeys(name for _, _, name, _ in LAYERS))
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._open = [0] * len(self.names)
        self.counters: Counter[str] = Counter()
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def is_open(self, name: str) -> bool:
        return self._open[self._index[name]] > 0

    def _wrap(self, fn, name: str, hook):
        ix = self._index[name]
        stack = self._stack
        perf = time.perf_counter
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(span_name)
            span_name.append(ix)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer._open[ix] += 1
            start = perf()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                span_end[span_id] = end
                stack.pop()
                tracer._open[ix] -= 1
                duration = end - start
                tracer.calls[ix] += 1
                tracer.self_s[ix] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function at each discotrans name bound to it."""
        if self._patches:
            return
        for module_name, _, _, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "discotrans" or n.startswith("discotrans."))]
        for module_name, attr, name, hook in LAYERS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Totals so far: calls and self seconds per span name, plus counters."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": dict(self.counters),
            "spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """Save every recorded span as arrays in one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start, dtype=np.float64),
            end=np.asarray(self.span_end, dtype=np.float64),
            parent=np.asarray(self.span_parent, dtype=np.int64),
        )

