"""Span tracing of founderhmm, applied from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` with
a wrapper that records a span, in the namespace of every ``founderhmm``
module that holds it. The modules import with ``from .x import name``, so
patching only the defining module would miss every caller. Nothing under
``src/`` is edited, and ``uninstall`` restores the originals.

A span carries its name, start, end, parent span and run id, plus the
counters its probe read from the call's arguments and result. Spans stay
in memory until ``dump`` writes them once as JSON. A span opened on a
worker thread with no open span of its own takes the innermost open span
of the installing thread as its parent, so the thread pool inside
``impute_untyped`` reports under the call that started it.

Self time is a span's duration minus the part of it that its children
cover. Spans of concurrent worker threads are each counted in full, so the
summed self time of a layer is busy time, and can exceed the wall time of
a run that uses more than one thread.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


def _path_bytes(key):
    def probe(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        return {key: os.path.getsize(path)}
    return probe


def _train_probe(args, kwargs, result):
    panel = list(args[0])
    model, report = result
    rows = len(panel)
    return {"rows": rows,
            "distinct_rows": len({h.alleles.tobytes() for h in panel}),
            "iterations": report.iterations_run,
            "capped": int(not report.converged),
            "row_locus_iters": rows * model.loci * report.iterations_run}


def _batch_probe(args, kwargs, result):
    stats = result.stats
    k = args[0].founders
    return {"samples": stats.samples,
            "distinct": stats.distinct_genotypes,
            "forward_evals": stats.forward_locus_evals,
            "backward_evals": stats.backward_locus_evals,
            "naive_evals": stats.samples * (2 * stats.loci - 1),
            "state_bytes": stats.distinct_genotypes * stats.loci * k * k * 8}


def _phase_probe(args, kwargs, result):
    return {"loci": len(args[1])}


def _impute_probe(args, kwargs, result):
    return {"windows": len(result.windows),
            "window_columns": sum(w.hi - w.lo + 1 for w in result.windows)}


_READ = _path_bytes("bytes_read")
_WRITE = _path_bytes("bytes_written")

# (defining module, public function, probe). Each module is one layer.
TARGETS = (
    ("cli", "main", None),
    *(("io_formats", name, _READ) for name in (
        "read_genotypes", "read_haplotypes", "read_locus_map", "read_model",
        "read_error_report", "read_imputation", "load_config_file")),
    *(("io_formats", name, _WRITE) for name in (
        "write_genotypes", "write_haplotypes", "write_locus_map",
        "write_model", "write_error_report", "write_imputation",
        "write_recovery", "write_eval_report", "write_channels")),
    ("training", "train_founder_hmm", _train_probe),
    ("trie", "batched_posteriors", _batch_probe),
    ("trie", "build_trie", None),
    ("trie", "reversed_trie", None),
    *(("inference", name, None) for name in (
        "forward", "backward", "forward_backward", "total_log_likelihood",
        "posterior_scan", "table_from_scan", "genotype_posteriors")),
    ("analysis", "detect_errors", None),
    ("analysis", "correct_errors", None),
    ("analysis", "recover_missing", None),
    ("analysis", "impute_untyped", _impute_probe),
    ("analysis", "run_pipeline", None),
    ("analysis", "phase_decode", _phase_probe),
    ("model", "emission_stack", None),
    ("simulate", "simulate", None),
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "run",
                 "thread", "counters")

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, layer, probe):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            elif tracer._owner_stack:
                parent = tracer._owner_stack[-1].id
            else:
                parent = None
            span = Span()
            span.id = next(tracer._ids)
            span.name = f"{layer}.{func.__name__}"
            span.layer = layer
            span.parent = parent
            span.run = tracer.run
            span.thread = threading.get_ident()
            span.counters = {}
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if probe is not None:
                span.counters = probe(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every target in every loaded founderhmm module."""
        self._owner_stack = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "founderhmm" or name.startswith("founderhmm.")]
        for layer, name, probe in TARGETS:
            original = getattr(sys.modules[f"founderhmm.{layer}"], name)
            wrapper = self._wrap(original, layer, probe)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def dump(self, path, header):
        payload = dict(header, spans=[s.as_dict() for s in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans, run_spans, run_wall, untraced_run_s):
    """Per-layer metrics over ``spans``. Coverage is taken over
    ``run_spans``, the subset recorded during one traced run that lasted
    ``run_wall`` seconds; overhead compares that run with the untraced
    median ``untraced_run_s``."""
    own = self_times(spans)

    def total(key):
        return sum(s.counters.get(key, 0) for s in spans)

    def self_s(layer, names=None, exclude=()):
        return sum(own[s.id] for s in spans if s.layer == layer
                   and (names is None or s.name in names)
                   and s.name not in exclude)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    reads = {f"io_formats.{n}" for _, n, p in TARGETS if p is _READ}
    writes = {f"io_formats.{n}" for _, n, p in TARGETS if p is _WRITE}
    read_s = self_s("io_formats", reads)
    bytes_read = total("bytes_read")
    train_s = self_s("training")
    rli = total("row_locus_iters")
    trie_s = self_s("trie")
    evals = total("forward_evals") + total("backward_evals")
    phase_s = self_s("analysis", {"analysis.phase_decode"})
    phase_loci = total("loci")
    return {
        "cli.self_s": self_s("cli"),
        "io_formats.read_s": read_s,
        "io_formats.write_s": self_s("io_formats", writes),
        "io_formats.bytes_read": bytes_read,
        "io_formats.bytes_written": total("bytes_written"),
        "io_formats.ns_per_byte_read": ratio(read_s * 1e9, bytes_read),
        "training.calls": calls("training.train_founder_hmm"),
        "training.self_s": train_s,
        "training.iterations": total("iterations"),
        "training.capped": total("capped"),
        "training.row_locus_iters": rli,
        "training.ns_per_row_locus_iter": ratio(train_s * 1e9, rli),
        "training.distinct_row_frac": ratio(total("distinct_rows"), total("rows")),
        "trie.calls": calls("trie.batched_posteriors"),
        "trie.self_s": trie_s,
        "trie.forward_evals": total("forward_evals"),
        "trie.backward_evals": total("backward_evals"),
        "trie.naive_evals": total("naive_evals"),
        "trie.shared_frac": 1.0 - ratio(evals, total("naive_evals")),
        "trie.distinct_frac": ratio(total("distinct"), total("samples")),
        "trie.us_per_eval": ratio(trie_s * 1e6, evals),
        "trie.state_bytes": max((s.counters["state_bytes"] for s in spans
                                 if "state_bytes" in s.counters), default=0),
        "inference.calls": sum(1 for s in spans if s.layer == "inference"),
        "inference.self_s": self_s("inference"),
        "analysis.self_s": self_s("analysis", exclude={"analysis.phase_decode"}),
        "analysis.phase_s": phase_s,
        "analysis.phase_calls": calls("analysis.phase_decode"),
        "analysis.phase_us_per_locus": ratio(phase_s * 1e6, phase_loci),
        "analysis.windows": total("windows"),
        "analysis.window_columns": total("window_columns"),
        "model.emission_stack_calls": calls("model.emission_stack"),
        "model.self_s": self_s("model"),
        "simulate.self_s": self_s("simulate"),
        "trace.coverage": ratio(sum(own[s.id] for s in run_spans), run_wall),
        "trace.overhead_frac": ratio(run_wall, untraced_run_s) - 1.0,
    }
