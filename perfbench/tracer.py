"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function defined in the splitopt
layer modules and puts the wrapper at every module attribute that holds the
original, which is where callers look it up: ``optimizers.lls_local_exact``
as well as ``solvers.lls_local_exact``, ``cli.run`` as well as
``optimizers.run``.  Nothing in the package itself changes.  ``restore``
puts the originals back.

Each call records one span (name, start, end, thread, id, parent, cell,
extra).  Spans stay in per-thread buffers, so the hot path takes no lock,
and are written out once at the end.  The cell is the grid cell a span
belongs to: ``optimizers.run`` labels its own calls with the problem kind,
method, alpha and seed, and benchmark code labels other work through
``Tracer.cell``.
"""

import contextlib
import csv
import importlib
import inspect
import sys
import threading
import time

LAYER_MODULES = ("data", "linalg", "solvers", "ode", "problems", "optimizers", "bounds", "cli")

# Elementwise helpers called inside the RHS, and parser construction; a span
# around each would cost more than the work it times.
SKIP = {"problems.sigmoid", "problems.softmax_cols", "problems.theta_shape", "cli.build_parser"}

# Counts read from return values: what the integrator spent, what a run did.
EXTRACT = {
    "ode.rk45_integrate": lambda sol: (sol.rhs_evals, sol.steps_taken, sol.rejected_steps),
    "optimizers.run": lambda tr: (tr.records[-1].iteration, tr.records[-1].epoch),
}

SPAN_FIELDS = ("name", "start", "end", "thread", "id", "parent", "cell", "extra")


def _run_cell(args, kwargs):
    pb = kwargs.get("pb", args[0] if args else None)
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    seed = cfg.seed if cfg.init_seed is None else cfg.init_seed
    return f"{pb.kind}/{cfg.method}/a={cfg.alpha:g}/s={seed}"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []  # one span list per thread that recorded
        self._patched = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans, st.stack, st.cell, st.seq = [], [], None, 0
            with self._lock:
                st.index = len(self._buffers)
                self._buffers.append(st.spans)
        return st

    @contextlib.contextmanager
    def cell(self, label):
        st = self._state()
        prev, st.cell = st.cell, label
        try:
            yield
        finally:
            st.cell = prev

    def _wrap(self, name, fn):
        extract = EXTRACT.get(name)
        labels_cell = name == "optimizers.run"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self._state()
            st.seq += 1
            sid = st.seq
            parent = st.stack[-1] if st.stack else 0
            prev_cell = st.cell
            if labels_cell:
                st.cell = _run_cell(args, kwargs)
            st.stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                st.stack.pop()
                extra = extract(result) if extract and result is not None else None
                st.spans.append((name, t0, t1, st.index, sid, parent, st.cell, extra))
                st.cell = prev_cell

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = name
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in traced_functions()}
        for mod in _splitopt_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def spans(self):
        with self._lock:
            return [s for buf in self._buffers for s in buf]


def traced_functions():
    """(span name, function) for every public function of the layer modules."""
    out = []
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"splitopt.{short}")
        for attr, fn in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP):
                out.append((name, fn))
    return out


def _splitopt_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "splitopt" or n.startswith("splitopt."))]


def leftover_wrappers():
    """Module attributes in splitopt that still hold a tracing wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _splitopt_modules()
            for attr, val in vars(mod).items() if hasattr(val, "__perfbench_span__")]


def write_spans(spans, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SPAN_FIELDS)
        for s in spans:
            w.writerow([*s[:7], "" if s[7] is None else " ".join(map(str, s[7]))])


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds; plus totals.

    Self time is a span's duration minus that of its direct children, which
    run on the same thread and nest inside it.  ``self_total`` is the sum
    of all self times, the part of the wall clock the spans account for.
    """
    child = {}
    for name, t0, t1, thread, sid, parent, _cell, _extra in spans:
        if parent:
            child[(thread, parent)] = child.get((thread, parent), 0.0) + (t1 - t0)
    out = {}
    self_total = 0.0
    for name, t0, t1, thread, sid, _parent, _cell, _extra in spans:
        dur = t1 - t0
        own = dur - child.get((thread, sid), 0.0)
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        self_total += own
    return out, self_total


def layer_metrics(spans, names):
    """Per-layer metrics from one traced phase, as (counts, times, self_total).

    Counts repeat exactly from run to run: ``<name>.calls`` for every traced
    function (zero when it never ran), the integrator's work from the
    returned ``OdeSolution`` in total and split by problem kind (the cell
    label starts with the kind), and the batch-local steps and epochs from
    the returned ``Trace``.  Times are ``<name>.s`` and ``<name>.self_s``.
    ``self_total`` is the summed self time of all spans.
    """
    per, self_total = summarize(spans)
    counts, times = {}, {}
    for name in names:
        calls, incl, own = per.get(name, (0, 0.0, 0.0))
        counts[f"{name}.calls"] = calls
        times[f"{name}.s"] = incl
        times[f"{name}.self_s"] = own
    for kind in ("", "logistic", "softmax"):
        calls = evals = accepted = rejected = 0
        for name, *_, cell, extra in spans:
            if name == "ode.rk45_integrate" and extra and (cell or "").startswith(kind):
                calls += 1
                evals += extra[0]
                accepted += extra[1]
                rejected += extra[2]
        sfx = f".{kind}" if kind else ""
        counts[f"ode.rhs_evals{sfx}"] = evals
        counts[f"ode.steps_accepted{sfx}"] = accepted
        counts[f"ode.steps_rejected{sfx}"] = rejected
        counts[f"ode.rhs_per_step{sfx}"] = evals / calls if calls else 0.0
        counts[f"ode.accept_ratio{sfx}"] = accepted / (accepted + rejected) if accepted else 0.0
    runs = [extra for name, *_, extra in spans if name == "optimizers.run" and extra]
    counts["optimizers.steps"] = sum(r[0] for r in runs)
    counts["optimizers.epochs"] = sum(r[1] for r in runs)
    return counts, times, self_total
