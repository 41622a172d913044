"""Layer tracing installed from outside the library.

The tracer replaces the bindings through which one ``wirelab`` module
calls another (module attributes such as ``wirelab.suite.decode`` or
``wirelab._kernels.output_vectors_depth2``, and a few methods) with
wrappers.  Three kinds of wrapper exist:

* ``span``: counts calls, accumulates self time (own duration minus the
  duration of wrapped calls below it) and records a span
  ``(id, parent, name, start, end)`` in memory;
* ``timed``: the same accounting without a span, for calls that run tens
  of thousands of times per pass (a span each would swamp the trace);
* ``count``: only a call counter, for the hottest inner calls
  (``Gf2Matrix.column`` runs about 700k times per 100 battery trials),
  whose time stays in their caller's self time.

Statistics go into one of two buckets, ``setup`` or ``passes``, so that
the per-layer metrics can be reported per set-up plus one pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from wirelab import _kernels, bounds, circuit, cli, compress, generators, gf2, suite, transforms

_CLOCK = time.perf_counter

# (metric key, owner, attribute, kind); a module-level function is
# replaced in every loaded wirelab module that binds it.
TARGETS = [
    ("kernels", _kernels, "node_vectors_general", "span"),
    ("kernels", _kernels, "output_vectors_depth2", "span"),
    ("circuit.collapse", circuit, "collapse", "span"),
    ("circuit.eval", circuit.GeneralCircuit, "eval", "timed"),
    ("circuit.eval", circuit.Depth2Circuit, "eval", "timed"),
    ("circuit.eval", circuit.LinearDepth2Circuit, "eval", "timed"),
    ("circuit.text", circuit, "depth2_to_text", "span"),
    ("circuit.text", circuit, "depth2_from_text", "span"),
    ("circuit.text", circuit, "general_to_text", "span"),
    ("circuit.text", circuit, "general_from_text", "span"),
    ("gf2.first_basis_columns", gf2, "first_basis_columns", "timed"),
    ("gf2.solve_in_span", gf2, "solve_in_span", "timed"),
    ("gf2.matvec", gf2, "matvec", "count"),
    ("gf2.column", gf2.Gf2Matrix, "column", "count"),
    ("compress.encode", compress, "encode", "span"),
    ("compress.decode", compress, "decode", "span"),
    ("compress.decode_matrix", compress, "decode_matrix", "span"),
    ("compress.serialize", compress, "serialize", "span"),
    ("compress.deserialize", compress, "deserialize", "span"),
    ("transforms.linearize", transforms, "linearize", "span"),
    ("transforms.cap_fanin", transforms, "cap_fanin", "span"),
    ("bounds", bounds, "min_wires_lower_bound", "span"),
    ("bounds", bounds, "linear_circuit_lower_bound", "span"),
    ("bounds", bounds, "bounds_table", "span"),
    ("bounds.count_evals", bounds, "log2_count_upper", "count"),
    ("bounds.count_evals", bounds, "linear_circuit_count", "count"),
    ("generators", generators, "random_matrix", "span"),
    ("generators", generators, "random_linear_circuit", "span"),
    ("generators", generators, "random_depth2", "span"),
    ("generators", generators, "random_general", "span"),
    ("generators", generators, "linear_output_instance", "span"),
    ("generators", generators, "linear_middle_instance", "span"),
    ("suite.run_all", suite, "run_all", "span"),
    ("cli.main", cli, "main", "span"),
    ("cli.linearize", cli, "cmd_linearize", "span"),
    ("cli.verify-equiv", cli, "cmd_verify_equiv", "span"),
    ("cli.encode", cli, "cmd_encode", "span"),
    ("cli.decode", cli, "cmd_decode", "span"),
]


def _kernel_counts(tracer: "Tracer", args, result) -> None:
    """Work of one sweep: inputs, gates, parity share and minterm terms."""
    n = args[0]
    if len(args) == 3:  # node_vectors_general(n, preds, tables)
        gates = [(len(p), t) for p, t in zip(args[1], args[2])]
    else:  # output_vectors_depth2(n, mid_inputs, mid_tables, out_mids, out_directs, out_tables)
        gates = [(len(i), t) for i, t in zip(args[1], args[2])]
        gates += [(len(m) + len(d), t) for m, d, t in zip(args[3], args[4], args[5])]
    c = tracer.bucket_counts()
    c["kernels.inputs_swept"] += 1 << n
    c["kernels.gates"] += len(gates)
    c["kernels.vector_bytes"] += (n + len(gates)) * max(1, (1 << n) // 8)
    for fanin, bits in gates:
        if circuit.is_linear_gate(circuit.TruthTable(fanin, bits)) is not None:
            c["kernels.parity_gates"] += 1
        else:
            c["kernels.minterm_terms"] += 1 << fanin


def _serialize_counts(tracer: "Tracer", args, result) -> None:
    tracer.bucket_counts()["compress.bytes"] += len(result)


def _linearize_counts(tracer: "Tracer", args, result) -> None:
    tracer.bucket_counts()["transforms.wires_added"] += result[1].added


OBSERVERS = {
    ("kernels", "node_vectors_general"): _kernel_counts,
    ("kernels", "output_vectors_depth2"): _kernel_counts,
    ("compress.serialize", "serialize"): _serialize_counts,
    ("transforms.linearize", "linearize"): _linearize_counts,
}


class Tracer:
    """Wrappers on the library's internal bindings, plus what they record."""

    def __init__(self) -> None:
        self.active = False
        self.bucket = "setup"
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # bucket -> key -> [calls, self seconds]
        self.timing = {b: defaultdict(lambda: [0, 0.0]) for b in ("setup", "passes")}
        self.counts = {b: defaultdict(int) for b in ("setup", "passes")}
        self._stack: list[list] = []  # frames: [child seconds, span id or None]
        self._patches: list[tuple[object, str, object]] = []

    def bucket_counts(self) -> defaultdict:
        return self.counts[self.bucket]

    def _wrap(self, key: str, fn, kind: str, observe=None):
        stack = self._stack
        spans = self.spans
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[tracer.bucket][key] += 1
                return fn(*args, **kwargs)
            return counted

        record = kind == "span"

        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if record else parent
            if record:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _CLOCK()
                stack.pop()
                stat = tracer.timing[tracer.bucket][key]
                stat[0] += 1
                stat[1] += (t1 - t0) - frame[0]
                if record:
                    spans[span_id] = (span_id, parent, key, t0, t1)
            if observe is not None:
                observe(tracer, args, result)
            if stack:
                # the observer's own cost is charged to nobody
                stack[-1][0] += _CLOCK() - t0
            return result

        return timed

    def call(self, key: str, fn):
        """Run ``fn()`` as a span named ``key`` (used for whole operations)."""
        return self._wrap(key, fn, "span")()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wirelab" or name.startswith("wirelab."))]
        for key, owner, attr, kind in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(key, orig, kind, OBSERVERS.get((key, attr)))
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, orig, wrapped)

    def _patch(self, owner, name: str, orig, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        self.active = False

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one set-up plus one pass."""
        def total(b_setup, b_pass):
            return b_setup + b_pass / passes

        def timing(key):
            s = self.timing["setup"].get(key, (0, 0.0))
            p = self.timing["passes"].get(key, (0, 0.0))
            return total(s[0], p[0]), total(s[1], p[1])

        def count(key):
            return total(self.counts["setup"].get(key, 0), self.counts["passes"].get(key, 0))

        out: dict[str, tuple[float, str]] = {}
        for key in ("kernels", "circuit.collapse", "circuit.eval", "gf2.first_basis_columns",
                    "gf2.solve_in_span", "compress.encode", "compress.decode",
                    "compress.decode_matrix", "transforms.linearize", "transforms.cap_fanin"):
            calls, self_s = timing(key)
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_s"] = (self_s, "s")
        for key in ("circuit.text", "compress.serialize", "compress.deserialize", "bounds",
                    "generators", "cli.main", "cli.linearize", "cli.verify-equiv", "cli.encode",
                    "cli.decode"):
            out[f"{key}.self_s"] = (timing(key)[1], "s")
        for key in ("gf2.matvec", "gf2.column"):
            out[f"{key}.calls"] = (count(key), "count")
        for key, unit in (("kernels.inputs_swept", "count"), ("kernels.gates", "count"),
                          ("kernels.minterm_terms", "count"), ("kernels.vector_bytes", "bytes"),
                          ("compress.bytes", "bytes"), ("transforms.wires_added", "count"),
                          ("bounds.count_evals", "count")):
            out[key] = (count(key), unit)
        gates = count("kernels.gates")
        out["kernels.parity_gate_frac"] = (count("kernels.parity_gates") / gates if gates else 0.0, "frac")
        encodes = timing("compress.encode")[0]
        decodes = timing("compress.decode")[0]
        out["compress.decodes_per_cert"] = (decodes / encodes if encodes else 0.0, "count")
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, name, start and end in seconds."""
        with open(path, "w") as f:
            for span in self.spans:
                if span is not None:
                    sid, parent, name, start, end = span
                    f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                        "start": start, "end": end}) + "\n")
