"""Command-line experiment harness.

Subcommands
-----------
datagen   materialize a dataset: linear-system text file for the
          least-squares generators, a JSON manifest otherwise
run       execute a JSON-configured grid of (method, alpha, repeat) runs,
          one trace CSV per cell plus a summary CSV, and one progress line
          per cell on stderr: its last epoch and outcome
bounds    build a row-split operator family, sweep the splitting error
          over a time grid, emit CSV and SVG
plot      render trace CSVs as a log-y convergence chart (SVG)

Global flags: --seed (overrides config seeds), --out (output file or
directory), --threads (worker cap for grid cells, at least 1).  On Linux
``run --threads k`` splits its runs k ways: it forks k − 1 worker
processes, each running one share, and runs the first share itself;
elsewhere it runs them one by one.  All randomness flows from
seeds; re-running a config reproduces every output byte except the
wall_seconds column, at any --threads.  Divergence of a run is a recorded
outcome, not a failure exit.  A cell whose RK step runs out of steps or
meets a non-finite state fails alone, its progress line ``failed: <why>``;
the other cells' outputs are written, then each failed cell is named on
stderr and ``run`` exits 2.
"""

import argparse
import csv
import json
import os
import pickle
import sys
import types
import typing
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .data import DATASET_KINDS, DatasetSpec, make_problem, save_linear_system, split_holdout
from .errors import EmptyTrace, NonFiniteState, ParseError, SplitOptError, StepBudgetExceeded
from .ode import IntegratorConfig, _check_count, _check_real
from .optimizers import RunConfig, StoppingRule, Trace, check_run, run

TRACE_HEADER = (
    "method",
    "alpha",
    "batch",
    "seed",
    "epoch",
    "iteration",
    "wall_seconds",
    "loss",
    "metric",
    "diverged",
)

# The DatasetSpec fields a datagen manifest writes: a run config's dataset.
MANIFEST_KEYS = (
    "kind", "n", "p", "k", "separation", "seed", "images_path", "labels_path", "class_filter",
)

SUMMARY_HEADER = (
    "method",
    "alpha",
    "seed",
    "stopped",
    "diverged",
    "epochs",
    "iterations",
    "wall_seconds",
    "final_loss",
    "final_metric",
    "rhs_evals",
    "rk_accepted",
    "rk_rejected",
)


@dataclass
class ExperimentConfig:
    """A ``run`` grid.  It builds its cells once, as ``cells``: one
    ``RunConfig`` per (method, alpha, repeat index r), in that order, with
    ``init_seed = seed + r``.  They check every field a run takes; this
    checks what no one run can (``repeat``, nonempty lists, trace names),
    and ``seed`` before the cells' init seeds are built from it.
    ``dataclasses.replace`` builds the cells anew."""

    dataset: DatasetSpec
    alphas: list[float]
    batch_size: int
    methods: list[str] = field(default_factory=lambda: ["sgd", "splitting"])
    max_epochs: int = 100
    stop: StoppingRule | None = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    repeat: int = 30
    seed: int = 0
    init_scale: float = 0.01
    holdout: DatasetSpec | None = None
    holdout_size: int = 0
    cells: list[RunConfig] = field(init=False, repr=False)

    def __post_init__(self):
        _check_count("repeat", self.repeat)
        _check_count("seed", self.seed, 0)
        for name in ("methods", "alphas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        self.cells = [
            RunConfig(method=method, alpha=alpha, batch_size=self.batch_size, seed=self.seed,
                      max_epochs=self.max_epochs, stop=self.stop, integrator=self.integrator,
                      init_scale=self.init_scale, init_seed=self.seed + rep)
            for method in self.methods for alpha in self.alphas for rep in range(self.repeat)
        ]
        # Trace files are named by method and f"{alpha:g}"; two entries
        # with one name would overwrite each other's files.
        for name, vals, tag in (
            ("methods", self.methods, str),
            ("alphas", self.alphas, "{:g}".format),
        ):
            tags = [tag(v) for v in vals]
            for i, t in enumerate(tags):
                if t in tags[:i]:
                    first = vals[tags.index(t)]
                    raise ValueError(
                        f"{name} {first!r} and {vals[i]!r} would write the same trace files"
                    )


def _build(cls, d, path):
    """An instance of dataclass ``cls`` from a JSON object.

    Each key is checked against its field's annotation; an absent key or a
    null takes the field's default, and an unknown key is an error.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected an object")
    known = {f.name: f for f in fields(cls) if f.init}  # not ExperimentConfig.cells
    for key in d:
        if key not in known:
            raise ValueError(f"{path}.{key}: unknown field")
    kwargs = {}
    for f in known.values():
        if d.get(f.name) is not None:
            kwargs[f.name] = _convert(f.type, d[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{path}.{f.name}: required field missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _convert(kind, val, path):
    """A JSON value as the annotated type ``kind``: an int serves for a
    float, a list for a tuple, and a bool only for a bool."""
    if is_dataclass(kind):
        return _build(kind, val, path)
    if isinstance(kind, types.UnionType):  # X | None, a null never gets here
        return _convert(typing.get_args(kind)[0], val, path)
    origin = typing.get_origin(kind) or kind
    if origin in (list, tuple) and isinstance(val, list):
        args = typing.get_args(kind)
        if args:
            val = [_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(val)]
        return origin(val)
    if origin is float and isinstance(val, int) and not isinstance(val, bool):
        return float(val)
    if isinstance(val, origin) and (origin is bool or not isinstance(val, bool)):
        return val
    raise ValueError(f"{path}: expected {origin.__name__}, got {type(val).__name__}")


def parse_experiment_config(d: dict) -> ExperimentConfig:
    """Validate a JSON config dict; errors carry the offending field path."""
    return _build(ExperimentConfig, d, "config")


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER)
        for rec in trace.records:
            writer.writerow(
                [
                    trace.method,
                    repr(trace.alpha),
                    trace.batch_size,
                    trace.seed,
                    rec.epoch,
                    rec.iteration,
                    repr(rec.wall_seconds),
                    repr(rec.loss),
                    repr(rec.metric),
                    int(rec.diverged),
                ]
            )


def cmd_datagen(args) -> int:
    out = args.out
    if out is None:
        raise ValueError("datagen needs --out")
    # An unset flag is None and takes DatasetSpec's default, checked as a run
    # config's dataset is; seed comes from the global --seed, path from none.
    spec = _build(DatasetSpec, {f.name: getattr(args, f.name, None)
                                for f in fields(DatasetSpec)}, "datagen")
    if spec.kind in ("random-lls", "tomo-like"):
        save_linear_system(make_problem(spec), out)
    else:
        manifest = {key: getattr(spec, key) for key in MANIFEST_KEYS}
        manifest["class_filter"] = list(spec.class_filter) if spec.class_filter else None
        Path(out).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def _cell_name(c):
    return f"method={c.method} alpha={c.alpha:g} init_seed={c.init_seed}"


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker process."""


@contextmanager
def _forked(run_cell, runs, k):
    """``map(run_cell, runs)`` shared between this process and k − 1
    worker processes forked from it, which share what it has built (every
    batch's factors) copy on write: worker w ≥ 1 runs ``runs[w::k]``, and
    this process runs ``runs[0::k]`` itself, each when the iterator reaches
    it.  Every worker is forked before this process starts a run, so none
    inherits a half-run state.  The iterator gives the outcomes in run
    order and raises what a run raised, or a ``SplitOptError`` naming the
    run whose worker died before reporting it.  Leaving the block kills
    and reaps every worker, on every path."""
    import signal  # only here: a serial command never loads it

    pids, readers = [], []  # of worker w at index w - 1
    try:
        for w in range(1, k):
            fd_in, fd_out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(run_cell, runs[w::k], fd_out)  # never returns
            # Closed before the next fork, so only worker w holds its write
            # end and the pipe ends when that worker does.
            os.close(fd_out)
            pids.append(pid)
            readers.append(open(fd_in, "rb"))

        def outcomes():
            for i, c in enumerate(runs):
                w = i % k
                if w == 0:
                    yield run_cell(c)
                    continue
                try:
                    value, worker_tb = pickle.load(readers[w - 1])
                except (EOFError, pickle.UnpicklingError):  # no outcome, or a cut-off one
                    _, status = os.waitpid(pids[w - 1], 0)
                    pids[w - 1] = None  # reaped
                    raise SplitOptError(f"{_cell_name(c)}: its worker process ended with exit "
                                        f"code {os.waitstatus_to_exitcode(status)} before "
                                        "reporting the run") from None
                if worker_tb is not None:
                    raise value from _WorkerTraceback(worker_tb)
                yield value

        yield outcomes()
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(run_cell, runs, fd):
    """A forked worker: run each of ``runs``, its share of the grid, and
    write its outcome to file descriptor ``fd`` as a pickle of (value,
    traceback), the traceback text of what a run raised or None, stopping
    after a run that raised.  It leaves by ``os._exit``, so the parent's
    ``finally`` blocks, exit hooks and buffered output never run twice,
    and it prints nothing: the parent, which runs a share of its own,
    reports every run."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for c in runs:
                try:
                    outcome = (run_cell(c), None)
                except Exception as exc:  # the parent raises it as a serial run would
                    import traceback  # only here: a clean run never loads it

                    outcome = (exc, traceback.format_exc())
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if outcome[1] is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def cmd_run(args) -> int:
    with open(args.config) as f:
        cfg = parse_experiment_config(json.load(f))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if cfg.holdout is not None and cfg.holdout_size:
        raise ValueError("config.holdout_size: give holdout or holdout_size, not both")
    pb = make_problem(cfg.dataset)
    if not 0 <= cfg.holdout_size < pb.n:
        raise ValueError(
            f"config.holdout_size: must be in [0, {pb.n}), got {cfg.holdout_size}"
        )
    holdout = None
    if cfg.holdout is not None:
        holdout = make_problem(cfg.holdout)
    elif cfg.holdout_size > 0:
        pb, holdout = split_holdout(pb, cfg.holdout_size, cfg.seed)
    if cfg.batch_size > pb.n:
        raise ValueError(
            f"config.batch_size: {cfg.batch_size} exceeds the {pb.n} training samples"
        )

    # Cells differ only in what the data never constrain (alpha, init
    # seed), so one check per method rejects a config before any cell runs.
    for c in {c.method: c for c in cfg.cells}.values():
        try:
            check_run(pb, holdout, c)
        except (SplitOptError, ValueError) as exc:
            raise ValueError(f"config: {exc}") from None

    def run_cell(c):
        """The cell's trace, or the integrator failure that ended it."""
        try:
            return run(pb, holdout, c)
        except (StepBudgetExceeded, NonFiniteState) as exc:
            return exc
        except (SplitOptError, ValueError) as exc:
            raise SplitOptError(f"{_cell_name(c)}: {exc}") from exc

    # Kaczmarz (h = inf) never reads alpha: one run per repeat, written under every alpha.
    def cell_of(c):
        return replace(c, alpha=cfg.alphas[0]) if c.method == "kaczmarz" else c

    # Runs are listed in the order of their first cells, and progress is
    # printed here in cell order, the same at any --threads.  Workers are
    # forked only on Linux: elsewhere fork is missing or, as on macOS,
    # unsafe once system libraries have started threads.
    runs = list(dict.fromkeys(map(cell_of, cfg.cells)))
    k = min(args.threads, len(runs)) if sys.platform == "linux" else 1
    ran, traces, failed = {}, [], []
    with _forked(run_cell, runs, k) if k > 1 else nullcontext(map(run_cell, runs)) as results:
        for c in cfg.cells:
            key = cell_of(c)
            if key not in ran:
                ran[key] = next(results)
            result = ran[key]
            if isinstance(result, Trace):
                trace = replace(result, alpha=c.alpha)
                end = "diverged" if trace.diverged else "stopped" if trace.stopped else "epoch cap"
                outcome = f"epoch {trace.records[-1].epoch}, {end}"
                traces.append(trace)
            else:
                outcome = f"failed: {result}"
                failed.append(f"{_cell_name(c)}: {result}")
            print(f"{_cell_name(c)}: {outcome}", file=sys.stderr)

    # Made only now, so a config error raised in a cell (not a recorded
    # failure) leaves no empty directory behind.
    out_dir = Path(args.out or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for trace in traces:
        trace_file = f"trace_{trace.method}_a{trace.alpha:g}_s{trace.seed}.csv"
        write_trace_csv(trace, out_dir / trace_file)
        last = trace.records[-1]
        summary_rows.append(
            [
                trace.method,
                repr(trace.alpha),
                trace.seed,
                int(trace.stopped),
                int(trace.diverged),
                last.epoch,
                last.iteration,
                repr(last.wall_seconds),
                repr(last.loss),
                repr(last.metric),
                trace.rhs_evals,
                trace.rk_accepted,
                trace.rk_rejected,
            ]
        )
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows)
    print(f"wrote {len(traces)} trace files and summary.csv to {out_dir}")
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    return 2 if failed else 0


def cmd_bounds(args) -> int:
    from .plotting import Series, render_line_chart  # only here and in plot: run never loads it

    _check_real("--t-max", args.t_max, positive=False)
    _check_count("--n", args.n)
    _check_count("--points", args.points)
    _check_count("--blocks", args.blocks)
    if args.blocks > args.n:
        raise ValueError(f"--blocks must be in [1, {args.n}], got {args.blocks}")
    seed = args.seed if args.seed is not None else 0
    x = bounds_mod.random_full_rank(args.n, seed)
    ops = bounds_mod.build_split(x, args.blocks)
    t_grid = np.linspace(0.0, args.t_max, args.points)
    rows = bounds_mod.error_sweep(ops, t_grid)
    out_dir = Path(args.out or "bounds_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"sweep_n{args.n}_k{args.blocks}"
    bounds_mod.write_sweep_csv(rows, base.with_suffix(".csv"))
    chart = render_line_chart(
        [
            Series("splitting error", rows[:, 0].tolist(), rows[:, 1].tolist()),
            Series("asymptotic limit", rows[:, 0].tolist(), rows[:, 2].tolist()),
        ],
        x_label="t",
        y_label="spectral-norm error",
        title=f"Splitting error, n={args.n}, blocks={args.blocks}",
    )
    base.with_suffix(".svg").write_text(chart)
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.svg')}")
    return 0


def _read_traces(paths):
    """Trace rows grouped by (method, alpha), then by seed; each row's
    numeric columns parsed once, as floats keyed by column name."""
    groups = {}
    for path in paths:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_HEADER:
                raise EmptyTrace(f"{path}: not a trace CSV (bad header)")
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if None in row or None in row.values():  # too many fields, or too few
                    raise ParseError(f"{where}: expected {len(TRACE_HEADER)} fields")
                nums = {}
                for name in TRACE_HEADER[1:]:
                    try:
                        nums[name] = float(row[name])
                    except ValueError:
                        raise ParseError(
                            f"{where}: {name} is not a number: {row[name]!r}") from None
                key = (row["method"], nums["alpha"])
                groups.setdefault(key, {}).setdefault(row["seed"], []).append(nums)
    if not groups:
        raise EmptyTrace("no trace records in the given files")
    return groups


def cmd_plot(args) -> int:
    if args.out is None:
        raise ValueError("plot needs --out")
    from .plotting import PALETTE, Series, render_line_chart  # only here and in bounds

    groups = _read_traces(args.traces)
    series = []
    palette_idx = 0
    for (method, alpha), runs_by_seed in sorted(groups.items()):
        color = PALETTE[palette_idx % len(PALETTE)]
        palette_idx += 1
        first = True
        for seed in sorted(runs_by_seed):
            rows = [r for r in runs_by_seed[seed] if r["diverged"] == 0]
            xs = [r[args.x_axis] for r in rows]
            ys = [r[args.y] for r in rows]
            label = f"{method} alpha={alpha:g}" if first else ""
            series.append(Series(label, xs, ys, color=color))
            first = False
    chart = render_line_chart(
        series,
        x_label=args.x_axis.replace("_", " "),
        y_label=args.y,
    )
    Path(args.out).write_text(chart)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitopt",
        description="Minibatch optimization by per-batch ODE flows: "
        "data generation, benchmark runs, error-limit sweeps, plots.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--out", type=str, default=None, help="output file or directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap for run grids: on Linux, --threads k forks "
                        "k - 1 worker processes and run runs one share of the grid "
                        "itself; other platforms run serially")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate or describe a dataset")
    p.add_argument("--kind", required=True,
                   choices=[k for k in DATASET_KINDS if k != "linear-system-file"])
    for flag, cast in (("--n", int), ("--p", int), ("--k", int), ("--noise-sigma", float),
                       ("--separation", float), ("--image-side", int), ("--rays", int),
                       ("--images-path", str), ("--labels-path", str)):
        p.add_argument(flag, type=cast)
    p.add_argument("--class-filter", type=int, nargs="*")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("run", help="execute a JSON-configured experiment grid")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bounds", help="splitting-error sweep and limit")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("plot", help="render trace CSVs as an SVG chart")
    p.add_argument("traces", nargs="+", help="trace CSV files")
    p.add_argument("--x-axis", choices=("iteration", "wall_seconds"), default="iteration")
    p.add_argument("--y", choices=("loss", "metric"), default="loss")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            _check_count("--seed", args.seed, 0)
        _check_count("--threads", args.threads)
        return args.func(args)
    except (SplitOptError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
