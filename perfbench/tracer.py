"""The traced run: spans at every entrywise module boundary, recorded from outside.

Tracing patches, from this benchmark's side only, every public function of
each entrywise module, in every module namespace that holds it (so the names
one module imports from another are traced too), plus Report.render_*, the
numpy/scipy eigen-solves and SVD, and counters on GaussianRational
arithmetic. Each call records a span (name, start, end, parent span, the
operation it belongs to); spans are kept in memory and written to
perfbench/out/ when the run ends. A span's self time is its duration minus
that of its child spans.

A traced run first times untraced passes for half of --seconds, then
traced passes for the rest; the ratio of the summed operation latencies
(each the fastest of its passes) is the tracing overhead. Per-layer values
are given per operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np
import scipy.linalg

MODULES = (
    "backends", "partitions", "schur", "hadamard", "samplers", "psd",
    "strata", "threshold", "matrixio", "report", "experiments", "cli",
)
SPAN_CAP = 200_000  # spans kept for the span file; aggregates cover every call
SIZE_BUCKETS = ((8, "le8"), (24, "le24"), (48, "le48"))
DET_SIZES = (1, 2, 3)
ATTEMPT_CALLERS = ("strata.generate_in_stratum", "strata.closure_probe")


def _bucket(n: int) -> str:
    for limit, name in SIZE_BUCKETS:
        if n <= limit:
            return name
    return "gt48"


def _matrix_arg(index):
    def label(base, args, kwargs):
        A = args[index] if len(args) > index else kwargs.get("A")
        return f"{base}[{_bucket(np.shape(A)[0])}]"

    return label


def _det_label(base, args, kwargs):
    n = len(args[0])
    return f"{base}[n{n}]" if n in DET_SIZES else f"{base}[n4plus]"


def _schur_label(base, args, kwargs):
    from entrywise.backends import EXACT_TYPES

    exact = all(isinstance(v, EXACT_TYPES) for v in args[1])
    return f"{base}[{'exact' if exact else 'float'}]"


TAGGED = {
    "backends.det_exact": _det_label,
    "schur.schur_eval": _schur_label,
    "psd.psd_check": _matrix_arg(0),
    "psd.moore_penrose_sqrt": _matrix_arg(0),
    "psd.rayleigh_constant": _matrix_arg(2),
    "psd.rayleigh_variational": _matrix_arg(2),
    "strata.stratify": _matrix_arg(0),
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [span id, label, start ns, child ns]
        self.agg = {}  # label -> [calls, self ns]
        self.spans = []  # (span id, parent id, op id, label, start ns, end ns)
        self.counters = {}
        self.next_id = 0
        self.op_id = -1
        self.patches = []  # (owner, attribute, original)

    # --- spans -----------------------------------------------------------------

    def enter(self, label: str) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, label, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, label, start, child = self.stack.pop()
        duration = end - start
        entry = self.agg.get(label)
        if entry is None:
            self.agg[label] = [1, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration - child
        parent = 0
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.op_id, label, start, end))

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def op_boundary(self, op) -> None:
        """Runner hook: opens the root span of an operation, or closes it."""
        if op is None:
            self.exit()
        else:
            self.op_id += 1
            self.enter("op")

    # --- patching --------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, fn, base: str):
        tracer = self
        tag = TAGGED.get(base)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(base)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.count(f"{base}.yields")
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(base if tag is None else tag(base, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import entrywise
        from entrywise.backends import GaussianRational
        from entrywise.report import Report

        modules = [importlib.import_module(f"entrywise.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not name.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    base = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
                    wrappers[value] = self._span_wrapper(value, base)
        for module in modules + [entrywise]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])

        for method in ("render_text", "render_json"):
            self._patch(Report, method, self._span_wrapper(getattr(Report, method), f"report.{method}"))
        for name in ("eigvalsh", "eigh", "svd"):
            self._patch(np.linalg, name, self._span_wrapper(getattr(np.linalg, name), f"linalg.{name}"))
        self._patch(scipy.linalg, "eigh", self._span_wrapper(scipy.linalg.eigh, "linalg.scipy_eigh"))

        for kind, dunders in (
            ("gr_mul", ("__mul__", "__rmul__")),
            ("gr_add", ("__add__", "__radd__", "__sub__", "__rsub__")),
            ("gr_div", ("__truediv__", "__rtruediv__")),
        ):
            for dunder in dunders:
                self._patch(GaussianRational, dunder, self._count_wrapper(getattr(GaussianRational, dunder), kind))

        # Each retry of generate_in_stratum and closure_probe draws a fresh
        # generator, so generator draws made directly by them count attempts.
        tracer, default_rng = self, np.random.default_rng

        @functools.wraps(default_rng)
        def counted_rng(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] in ATTEMPT_CALLERS:
                tracer.count(f"{tracer.stack[-1][1]}.attempts")
            return default_rng(*args, **kwargs)

        self._patch(np.random, "default_rng", counted_rng)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # --- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for row in self.spans:
                fh.write("\t".join(map(str, row)) + "\n")

    def calls(self, *labels) -> int:
        return sum(self.agg.get(label, (0, 0))[0] for label in labels)

    def self_ms(self, *labels) -> float:
        return sum(self.agg.get(label, (0, 0))[1] for label in labels) / 1e6

    def labels(self, prefix: str, exclude: str = "") -> list[str]:
        return [l for l in self.agg if l.startswith(prefix) and not (exclude and l.startswith(exclude))]


def _size_tags(base, tags):
    return [(tag, f"{base}[{tag}]") for tag in tags]


def per_layer(tracer: Tracer, ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics, per operation, in the order of BENCHMARK.json."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(name, *labels):
        put(name, tracer.calls(*labels) / ops, "calls/op")

    def self_ms(name, *labels):
        put(name, tracer.self_ms(*labels) / ops, "ms/op")

    def counted(name, counter):
        put(name, tracer.counters.get(counter, 0) / ops, "calls/op")

    for tag, label in _size_tags("backends.det_exact", [f"n{n}" for n in DET_SIZES] + ["n4plus"]):
        calls(f"backends.det_exact.{tag}.calls", label)
        self_ms(f"backends.det_exact.{tag}.self_ms", label)
    calls("backends.solve_exact.calls", "backends.solve_exact")
    self_ms("backends.solve_exact.self_ms", "backends.solve_exact")
    for kind in ("gr_mul", "gr_add", "gr_div"):
        counted(f"backends.{kind}.calls", kind)

    for tag, label in _size_tags("schur.schur_eval", ("exact", "float")):
        calls(f"schur.schur_eval.{tag}.calls", label)
        self_ms(f"schur.schur_eval.{tag}.self_ms", label)
    calls("schur.complete_homogeneous.calls", "schur.complete_homogeneous")
    self_ms("schur.complete_homogeneous.self_ms", "schur.complete_homogeneous")

    for fn in (
        "pencil_det_direct", "pencil_det_closed_form", "cauchy_binet_lhs",
        "cauchy_binet_rhs", "decomposition_residual", "vandermonde_solve_moments",
    ):
        self_ms(f"hadamard.{fn}.self_ms", f"hadamard.{fn}")
    calls("hadamard.entrywise_poly.calls", "hadamard.entrywise_poly")
    self_ms("hadamard.entrywise_poly.self_ms", "hadamard.entrywise_poly")

    counted("samplers.psd_disc_samples.draws", "samplers.psd_disc_samples.yields")
    self_ms("samplers.psd_disc_samples.self_ms", "samplers.psd_disc_samples")
    self_ms("samplers.self_ms", *tracer.labels("samplers."))

    for fn in ("preserves_positivity_check", "lmi_check", "horn_necessity_witness", "threshold_constant"):
        self_ms(f"threshold.{fn}.self_ms", f"threshold.{fn}")

    for fn in ("eigvalsh", "eigh", "svd", "scipy_eigh"):
        calls(f"linalg.{fn}.calls", f"linalg.{fn}")
        self_ms(f"linalg.{fn}.self_ms", f"linalg.{fn}")

    buckets = [name for _, name in SIZE_BUCKETS] + ["gt48"]
    for fn in ("psd_check", "moore_penrose_sqrt", "rayleigh_constant", "rayleigh_variational"):
        for tag, label in _size_tags(f"psd.{fn}", buckets):
            self_ms(f"psd.{fn}.{tag}.self_ms", label)

    for tag, label in _size_tags("strata.stratify", buckets):
        self_ms(f"strata.stratify.{tag}.self_ms", label)
    for fn in ("verify_offdiagonal_structure", "simultaneous_kernel", "kernel_for_partition"):
        self_ms(f"strata.{fn}.self_ms", f"strata.{fn}")
    for caller in ATTEMPT_CALLERS:
        n = tracer.calls(caller)
        value = tracer.counters.get(f"{caller}.attempts", 0) / n if n else 0.0
        put(f"{caller}.attempts_per_call", value, "attempts/call")

    self_ms("cli.build_parser.self_ms", "cli.build_parser")
    self_ms("cli.handlers.self_ms", *tracer.labels("cli.", exclude="cli.build_parser"))
    self_ms("matrixio.load_matrix.self_ms", "matrixio.load_matrix")
    self_ms("report.render_text.self_ms", "report.render_text")
    self_ms("report.render_json.self_ms", "report.render_json")
    self_ms("experiments.run_identity_suite.self_ms", "experiments.run_identity_suite")
    self_ms("experiments.drivers.self_ms", *tracer.labels("experiments.", exclude="experiments.run_identity_suite"))
    self_ms("partitions.self_ms", *tracer.labels("partitions."))
    self_ms("bench.op.self_ms", "op")

    put("trace.spans_per_op", sum(c for c, _ in tracer.agg.values()) / ops, "spans/op")
    put("trace.overhead_pct", overhead_pct, "%")
    return out


def traced_run(runner, wl, args, out_dir) -> dict:
    untraced_s = args.seconds / 2
    runner.run_for(untraced_s, min_passes=3)
    first_traced = runner.passes
    tracer = Tracer()
    tracer.install()
    try:
        runner.run_for(args.seconds - untraced_s, min_passes=3, on_op=tracer.op_boundary)
    finally:
        tracer.uninstall()
    untraced = sum(min(s[:first_traced]) for s in runner.samples)
    traced = sum(runner.best(first_traced))
    ops = (runner.passes - first_traced) * len(wl.ops)
    tracer.write_spans(out_dir / f"trace-{args.workload}-{args.seed}.tsv")
    return per_layer(tracer, ops, 100.0 * (traced / untraced - 1.0))
