"""Span tracer and import-site patcher for the eitdisk benchmark.

The tracer wraps public functions of the ``eitdisk`` modules from outside the
package.  Modules bind each other's names with ``from .muntz import ...``, so
patching only the defining module would miss most real calls: ``Patcher``
replaces every attribute of every loaded ``eitdisk.*`` module that *is* one
of the wrapped originals, patches methods on their classes, and puts every
original binding back on exit.

Spans record name, start, end, parent span and case id; they are kept in
memory and written out once, when the run ends.  Hot leaf functions are
counted, not spanned.  Counts marked "computed" below are derived from call
arguments or return values, never from clocks, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span or counter name, mode).  An attribute "Cls.meth"
# names a method.  Several functions may share one name; their spans add up.
TARGETS = (
    ("muntz", "inverse_matrix", "muntz.inverse_matrix", "span"),
    ("muntz", "build_weighted_family", "muntz.build_weighted_family", "span"),
    ("muntz", "eval_weighted", "muntz.eval_weighted", "count"),
    ("fields", "RadialProfile.moment_exact", "fields.moment_exact", "count"),
    ("fields", "eval_field_grid", "fields.eval_field_grid", "span"),
    ("forward", "conductivity_dtn", "forward.assemble", "span"),
    ("forward", "schroedinger_dtn", "forward.assemble", "span"),
    ("forward", "energy_oracle", "forward.energy_oracle", "span"),
    ("inverse", "validate", "inverse.validate", "span"),
    ("inverse", "extract_conductivity_moments", "inverse.extract", "span"),
    ("inverse", "extract_schroedinger_moments", "inverse.extract", "span"),
    ("inverse", "solve_moment_problem", "inverse.solve_moment_problem", "span"),
    ("inverse", "condition_sums", "inverse.condition_sums", "span"),
    ("inverse", "reconstruct", "inverse.reconstruct", "span"),
    ("inverse", "Reconstruction.to_field", "inverse.to_field", "span"),
    ("inverse", "Reconstruction.evaluate", "inverse.evaluate", "span"),
    ("inverse", "extra_hankel_moments", "inverse.extra_hankel_moments", "span"),
    ("partial", "half_disk_data", "partial.half_disk_data", "span"),
    ("partial", "arc_data", "partial.arc_data", "span"),
    ("partial", "half_disk_forward_oracle", "partial.half_disk_forward_oracle", "span"),
    ("partial", "arc_forward_oracle", "partial.arc_forward_oracle", "span"),
    ("partial", "half_disk_invert", "partial.half_disk_invert", "span"),
    ("partial", "ArcReconstruction.evaluate", "partial.arc_evaluate", "span"),
    # psi and the oracles' and CLI's import sites all map through _psi_array
    ("conformal", "_psi_array", "conformal.psi", "count"),
    ("conformal", "psi_inverse", "conformal.psi_inverse", "count"),
    ("io", "load_json", "io.read", "span"),
    ("io", "field_from_dict", "io.read", "span"),
    ("io", "dtn_from_dict", "io.read", "span"),
    ("io", "arc_data_from_dict", "io.read", "span"),
    ("io", "dumps", "io.write", "span"),
    ("io", "grid_to_csv", "io.write", "span"),
    ("io", "field_to_dict", "io.write", "span"),
    ("io", "dtn_to_dict", "io.write", "span"),
    ("io", "reconstruction_to_dict", "io.write", "span"),
    ("io", "arc_data_to_dict", "io.write", "span"),
    ("cli", "main", "cli", "span"),  # named per subcommand: cli.forward, ...
)

PACKAGE = "eitdisk"
MODULES = ("muntz", "fields", "forward", "inverse", "partial", "conformal", "io", "cli")
ORACLES = ("forward.energy_oracle", "partial.half_disk_forward_oracle", "partial.arc_forward_oracle")

# Per-layer metrics as (name, unit, better).  Every traced run reports all of
# them, with 0 where a layer does no work on that workload.
PER_LAYER = (
    ("muntz.inverse_matrix.calls", "count", "lower"),
    ("muntz.inverse_matrix.self_s", "s", "lower"),
    ("muntz.inverse_matrix.entries", "count", "lower"),
    ("muntz.distinct_table_ratio", "ratio", "higher"),
    ("muntz.build_weighted_family.self_s", "s", "lower"),
    ("muntz.eval_weighted.calls", "count", "lower"),
    ("forward.assemble.self_s", "s", "lower"),
    ("forward.assemble.entries", "count", "lower"),
    ("forward.energy_oracle.calls", "count", "lower"),
    ("forward.energy_oracle.self_s", "s", "lower"),
    ("fields.moment_exact.calls", "count", "lower"),
    ("fields.eval_field_grid.calls", "count", "lower"),
    ("fields.eval_field_grid.self_s", "s", "lower"),
    ("quadrature.grid_passes", "count", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.useful_pass_ratio", "ratio", "higher"),
    ("inverse.validate.calls", "count", "lower"),
    ("inverse.validate.self_s", "s", "lower"),
    ("inverse.extract.self_s", "s", "lower"),
    ("inverse.solve_moment_problem.self_s", "s", "lower"),
    ("inverse.condition_sums.self_s", "s", "lower"),
    ("inverse.reconstruct.self_s", "s", "lower"),
    ("inverse.to_field.self_s", "s", "lower"),
    ("inverse.evaluate.calls", "count", "lower"),
    ("inverse.evaluate.self_s", "s", "lower"),
    ("inverse.extra_hankel_moments.self_s", "s", "lower"),
    ("partial.half_disk_data.self_s", "s", "lower"),
    ("partial.arc_data.self_s", "s", "lower"),
    ("partial.half_disk_forward_oracle.calls", "count", "lower"),
    ("partial.half_disk_forward_oracle.self_s", "s", "lower"),
    ("partial.arc_forward_oracle.calls", "count", "lower"),
    ("partial.arc_forward_oracle.self_s", "s", "lower"),
    ("partial.half_disk_invert.self_s", "s", "lower"),
    ("partial.arc_evaluate.calls", "count", "lower"),
    ("partial.arc_evaluate.self_s", "s", "lower"),
    ("conformal.psi.calls", "count", "lower"),
    ("conformal.psi_inverse.calls", "count", "lower"),
    ("io.read.self_s", "s", "lower"),
    ("io.write.self_s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("cli.forward.self_s", "s", "lower"),
    ("cli.half_invert.self_s", "s", "lower"),
    ("cli.arc_invert.self_s", "s", "lower"),
    *((f"{m}.errors", "count", "lower") for m in MODULES),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.dominant_share", "ratio", "lower"),
)

# Metrics derived from call arguments or return values, not from clocks.
COMPUTED = (
    "muntz.inverse_matrix.entries",
    "muntz.distinct_table_ratio",
    "quadrature.grid_passes",
    "quadrature.nodes",
    "quadrature.useful_pass_ratio",
    "forward.assemble.entries",
    "io.bytes_written",
)


class Span:
    __slots__ = ("name", "case", "parent", "start", "end", "error")

    def __init__(self, name, case, parent, start):
        self.name = name
        self.case = case
        self.parent = parent
        self.start = start
        self.end = start
        self.error = False


class Tracer:
    """In-memory spans and counters for one traced pass.

    Wrappers record only while ``active`` is true, so the benchmark's own
    gates, which may call the same functions, stay out of the trace.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.active = False
        self.calls = Counter()       # counted (not spanned) functions
        self.errors = Counter()      # module -> exceptions leaving its spans
        self.entries = Counter()     # computed sizes: inverse_matrix, assemble
        self.tables = set()          # distinct inverse_matrix prefixes
        self.grid_passes = 0
        self.grid_nodes = 0
        self.grid_pairs = set()      # distinct (case, oracle, field, grid)
        self.bytes_written = 0
        self._alive = []             # keeps traced fields alive so ids stay unique

    # spans -----------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.case, parent, time.perf_counter_ns())
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span, error=False):
        span.end = time.perf_counter_ns()
        span.error = error
        self.stack.pop()

    @contextmanager
    def case_span(self, case_id):
        """Root span of one case; every span opened inside carries its id."""
        self.case = case_id
        self.active = True
        span = self.open("case")
        try:
            yield
        finally:
            self.close(span)
            self.active = False
            self.case = None

    def self_ns(self):
        """Duration minus the time covered by direct child spans, per span."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    # computed counts ---------------------------------------------------------

    def note_inverse_matrix(self, bound):
        size = bound.arguments["size"]
        self.entries["muntz.inverse_matrix"] += size * (size + 1) // 2
        self.tables.add(tuple(bound.arguments["seq"].lambdas[:size]))

    def note_assemble(self, name, bound):
        n = bound.arguments["N"]
        if name == "conductivity_dtn":
            self.entries["forward.assemble"] += 4 * n * n
        else:  # cc (N+1)^2, ss N^2, sc and cs N(N+1)
            self.entries["forward.assemble"] += (n + 1) ** 2 + n * n + 2 * n * (n + 1)

    def note_oracle(self, name, bound):
        quad = bound.arguments["quad"]
        field = bound.arguments["field"]
        cmap = bound.arguments.get("cmap")
        self._alive.append(field)
        self.grid_passes += 1
        self.grid_nodes += quad.n_r * quad.n_phi
        alpha = None if cmap is None else cmap.alpha
        self.grid_pairs.add((self.case, name, id(field), quad.n_r, quad.n_phi, alpha))

    # metrics -------------------------------------------------------------------

    def layer_metrics(self, dominant):
        """Per-layer metrics of the traced pass, keyed as in ``PER_LAYER``.

        ``dominant`` names the spans predicted to dominate the workload; their
        inclusive time (outermost occurrences only) over the summed case time
        is reported as ``trace.dominant_share``.
        """
        selfs = self.self_ns()
        span_calls = Counter()
        span_self = Counter()
        for span, own in zip(self.spans, selfs):
            span_calls[span.name] += 1
            span_self[span.name] += own
        total = sum(s.end - s.start for s in self.spans if s.name == "case")
        dom = 0
        for span in self.spans:
            if span.name in dominant and not self._inside(span, dominant):
                dom += span.end - span.start
        out = {}
        for name, _unit, _better in PER_LAYER:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = span_calls.get(base, 0) + self.calls.get(base, 0)
            elif stat == "self_s":
                out[name] = span_self.get(base, 0) / 1e9
            elif stat == "errors":
                out[name] = self.errors.get(base, 0)
        out["muntz.inverse_matrix.entries"] = self.entries["muntz.inverse_matrix"]
        out["muntz.distinct_table_ratio"] = _ratio(len(self.tables), span_calls["muntz.inverse_matrix"])
        out["forward.assemble.entries"] = self.entries["forward.assemble"]
        out["quadrature.grid_passes"] = self.grid_passes
        out["quadrature.nodes"] = self.grid_nodes
        out["quadrature.useful_pass_ratio"] = _ratio(len(self.grid_pairs), self.grid_passes)
        out["io.bytes_written"] = self.bytes_written
        out["trace.dominant_share"] = _ratio(dom, total)
        return out

    def _inside(self, span, names):
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path, header):
        """Write the header and one JSON line per span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span, own in zip(self.spans, self.self_ns()):
                fh.write(json.dumps({
                    "name": span.name, "case": span.case, "parent": span.parent,
                    "start_ns": span.start, "end_ns": span.end, "self_ns": own,
                    "error": span.error,
                }) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


# wrappers ----------------------------------------------------------------------

def _span_wrapper(tracer, fn, name, module, note):
    sig = inspect.signature(fn) if note is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if note is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            note(bound)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            tracer.errors[module] += 1
            raise
        tracer.close(span)
        if module == "io" and isinstance(result, str):
            tracer.bytes_written += len(result.encode("utf-8"))
        return result

    return wrapper


def _count_wrapper(tracer, fn, name, module):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        calls[name] += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.errors[module] += 1
            raise

    return wrapper


def _cli_wrapper(tracer, fn):
    """``cli.main`` gets one span name per subcommand; a non-zero exit is an error."""

    @functools.wraps(fn)
    def wrapper(argv=None):
        if not tracer.active:
            return fn(argv)
        span = tracer.open("cli." + str(argv[0]).replace("-", "_"))
        try:
            code = fn(argv)
        except BaseException:
            tracer.close(span, error=True)
            tracer.errors["cli"] += 1
            raise
        tracer.close(span, error=code != 0)
        if code != 0:
            tracer.errors["cli"] += 1
        return code

    return wrapper


def _note_for(tracer, attr, name):
    if name == "muntz.inverse_matrix":
        return tracer.note_inverse_matrix
    if name == "forward.assemble":
        return functools.partial(tracer.note_assemble, attr)
    if name in ORACLES:
        return functools.partial(tracer.note_oracle, name)
    return None


def _resolve(module, attr):
    obj = sys.modules[f"{PACKAGE}.{module}"]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Patcher:
    """Installs the tracer's wrappers at every import site and restores them."""

    def __init__(self, tracer):
        self.functions = {}   # id(original) -> (original, wrapper)
        self.methods = []     # (class, attribute, wrapper)
        self.restore = []     # (object, attribute, original), in install order
        for module, attr, name, mode in TARGETS:
            owner, fn = _resolve(module, attr)
            if name == "cli":
                wrapper = _cli_wrapper(tracer, fn)
            elif mode == "count":
                wrapper = _count_wrapper(tracer, fn, name, module)
            else:
                note = _note_for(tracer, attr, name)
                wrapper = _span_wrapper(tracer, fn, name, module, note)
            if "." in attr:
                self.methods.append((owner, attr.rsplit(".", 1)[1], wrapper))
            else:
                self.functions[id(fn)] = (fn, wrapper)

    def install(self):
        if self.restore:
            raise RuntimeError("patcher already installed")
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self.functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.restore.append((mod, attr, value))
        for cls, attr, wrapper in self.methods:
            self.restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        while self.restore:
            obj, attr, value = self.restore.pop()
            setattr(obj, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
