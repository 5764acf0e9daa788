"""Traced runs: spans around the public functions of each discordkit layer.

The tracer wraps functions from outside the library.  A from-imported name
is a separate binding in every module that imports it, so each wrapped
function is replaced wherever ``discordkit`` binds it (``discord`` in
``cli`` and ``classify``, ``is_cq_exact`` in ``classify`` and
``annihilators``, scipy's ``minimize`` in ``discord``).  Spans (name,
start, end, parent, operation id) stay in memory until the run ends.  Only
calls made while an operation is open are recorded, so the benchmark's own
output checks do not count.  ``numpy.linalg`` is counted program-wide.
Importing this module changes nothing; :meth:`Tracer.install` patches and
:meth:`Tracer.uninstall` restores.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) of every wrapped function; ``Class.method``
# wraps a method on its class.
TRACED = [
    ("cli", "discordkit.cli", "main"),
    ("serialize", "discordkit.serialize", "load_state"),
    ("serialize", "discordkit.serialize", "load_channel"),
    ("serialize", "discordkit.serialize", "save_channel"),
    ("serialize", "discordkit.serialize", "da_spec_to_json"),
    ("serialize", "discordkit.serialize", "discord_result_to_json"),
    ("serialize", "discordkit.serialize", "verdict_to_json"),
    ("serialize", "discordkit.serialize", "state_to_json"),
    ("states", "discordkit.states", "DensityOperator.from_matrix"),
    ("states", "discordkit.states", "von_neumann_entropy"),
    ("channels", "discordkit.channels", "QuantumChannel.apply"),
    ("channels", "discordkit.channels", "QuantumChannel.transfer"),
    ("channels", "discordkit.channels", "QuantumChannel.from_choi"),
    ("channels", "discordkit.channels", "analyze_transfer"),
    ("channels", "discordkit.channels", "make_unital_qubit"),
    ("channels", "discordkit.channels", "compose"),
    ("channels", "discordkit.channels", "extend"),
    ("discord", "discordkit.discord", "discord"),
    ("discord", "discordkit.discord", "minimize"),
    ("discord", "discordkit.discord", "is_cq_exact"),
    ("discord", "discordkit.discord", "cq_decompose"),
    ("annihilators", "discordkit.annihilators", "random_da_spec"),
    ("annihilators", "discordkit.annihilators", "build_da_channel"),
    ("annihilators", "discordkit.annihilators", "apply_and_certify"),
    ("annihilators", "discordkit.annihilators", "structural_match"),
    ("classify", "discordkit.classify", "classify_channel"),
    ("classify", "discordkit.classify", "is_qc_channel"),
    ("classify", "discordkit.classify", "is_point_channel"),
    ("classify", "discordkit.classify", "is_entanglement_breaking"),
    ("classify", "discordkit.classify", "tetrahedron_sweep"),
    ("classify", "discordkit.classify", "witness_probe_states"),
]
COUNTED_LINALG = ("eigh", "eigvalsh")

# Reported per-layer metrics, per traced operation except cli.import_s (per
# fresh interpreter) and the _frac ratios.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "serialize.load_state.s": "s",
    "serialize.load_channel.s": "s",
    "serialize.save_channel.s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "states.from_matrix.calls": "count",
    "states.from_matrix.s": "s",
    "states.von_neumann_entropy.calls": "count",
    "channels.apply.calls": "count",
    "channels.apply.s": "s",
    "channels.transfer.calls": "count",
    "channels.transfer.s": "s",
    "channels.analyze_transfer.s": "s",
    "channels.from_choi.calls": "count",
    "channels.from_choi.s": "s",
    "channels.make_unital_qubit.s": "s",
    "discord.discord.calls": "count",
    "discord.discord.s": "s",
    "discord.minimize.runs": "count",
    "discord.minimize.nfev": "count",
    "discord.minimize.success_frac": "frac",
    "discord.minimize.s": "s",
    "discord.is_cq_exact.calls": "count",
    "discord.is_cq_exact.s": "s",
    "discord.is_cq_exact.pass_frac": "frac",
    "discord.cq_decompose.s": "s",
    "annihilators.random_da_spec.s": "s",
    "annihilators.build_da_channel.s": "s",
    "annihilators.apply_and_certify.calls": "count",
    "annihilators.apply_and_certify.s": "s",
    "annihilators.apply_and_certify.inputs_checked": "count",
    "annihilators.structural_match.calls": "count",
    "annihilators.structural_match.s": "s",
    "classify.classify_channel.calls": "count",
    "classify.classify_channel.s": "s",
    "classify.is_qc_channel.s": "s",
    "classify.is_point_channel.s": "s",
    "classify.is_entanglement_breaking.s": "s",
    "classify.tetrahedron_sweep.rows": "count",
    "classify.tetrahedron_sweep.s": "s",
    "classify.witness_cq_checks": "count",
    "linalg.eigh.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "linalg.svd.bytes_computed": "bytes",
    "trace_overhead_frac": "frac",
}


def _path_size(source) -> int:
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self.patched: list[tuple] = []  # (owner, attribute, original value)

    def _patch(self, owner, attr: str, value):
        self.patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is not None:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hooks(self):
        c = self.counters

        def minimize(args, kwargs, res):
            c["minimize.nfev"] += int(res.nfev)
            c["minimize.success"] += bool(res.success)

        def cq(args, kwargs, check):
            c["is_cq_exact.pass"] += bool(check)

        def read(args, kwargs, result):
            c["bytes_read"] += _path_size(args[0])

        def written(args, kwargs, result):
            c["bytes_written"] += _path_size(args[1])

        def rows(args, kwargs, result):
            c["sweep_rows"] += len(result)

        def svd(args, kwargs, result):
            parts = result if isinstance(result, tuple) else (result,)
            c["svd.bytes"] += sum(p.nbytes for p in parts)

        return {
            "discord.minimize": minimize,
            "discord.is_cq_exact": cq,
            "serialize.load_state": read,
            "serialize.load_channel": read,
            "serialize.save_channel": written,
            "classify.tetrahedron_sweep": rows,
            "linalg.svd": svd,
        }

    def install(self):
        """Patch every traced name wherever discordkit binds it."""
        import numpy.linalg

        hooks = self._after_hooks()
        package = [m for n, m in list(sys.modules.items()) if n == "discordkit" or n.startswith("discordkit.")]
        for layer, module_name, attr in TRACED:
            module = sys.modules[module_name]
            span_name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap(span_name, raw.__func__, hooks.get(span_name))))
                else:
                    self._patch(cls, method, self._wrap(span_name, raw, hooks.get(span_name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, hooks.get(span_name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name in COUNTED_LINALG:
            self._patch(numpy.linalg, name, self._count(f"linalg.{name}", getattr(numpy.linalg, name)))
        self._patch(numpy.linalg, "svd", self._wrap("linalg.svd", numpy.linalg.svd, hooks["linalg.svd"]))

    def uninstall(self):
        """Restore every patched name."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------------

    def metrics(self, n_ops: int, import_s: float, overhead_frac: float) -> dict:
        """Per-operation layer metrics over the traced operations."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        cq_under: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
            if name == "discord.is_cq_exact" and parent >= 0:
                cq_under[self.spans[parent][0]] += 1
        c = self.counters
        per_op = {
            "cli.main.self_s": self_s["cli.main"],
            "serialize.bytes_read": c["bytes_read"],
            "serialize.bytes_written": c["bytes_written"],
            "discord.minimize.runs": calls["discord.minimize"],
            "discord.minimize.nfev": c["minimize.nfev"],
            "annihilators.apply_and_certify.inputs_checked": cq_under["annihilators.apply_and_certify"],
            "classify.tetrahedron_sweep.rows": c["sweep_rows"],
            "classify.witness_cq_checks": cq_under["classify.classify_channel"],
            "linalg.eigh.calls": c["linalg.eigh"],
            "linalg.eigvalsh.calls": c["linalg.eigvalsh"],
            "linalg.svd.bytes_computed": c["svd.bytes"],
        }
        for metric in PER_LAYER:
            if metric in per_op:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                per_op[metric] = calls[span]
            elif kind == "s":
                per_op[metric] = self_s[span]
        out = {k: v / n_ops for k, v in per_op.items()}
        out["cli.import_s"] = import_s
        out["discord.minimize.success_frac"] = c["minimize.success"] / max(1, calls["discord.minimize"])
        out["discord.is_cq_exact.pass_frac"] = c["is_cq_exact.pass"] / max(1, calls["discord.is_cq_exact"])
        out["trace_overhead_frac"] = overhead_frac
        return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
