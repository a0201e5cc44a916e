"""Command-line experiment harness.

Subcommands
-----------
datagen   materialize a dataset: linear-system text file for the
          least-squares generators, a JSON manifest otherwise
run       execute a JSON-configured grid of (method, alpha, repeat) runs,
          one trace CSV per cell plus a summary CSV
bounds    build a row-split operator family, sweep the splitting error
          over a time grid, emit CSV and SVG
plot      render trace CSVs as a log-y convergence chart (SVG)

Global flags: --seed (overrides config seeds), --out (output file or
directory), --threads (worker cap for grid cells).  All randomness flows
from seeds; re-running a config reproduces every output byte except the
wall_seconds column.  Divergence of a run is a recorded outcome, not a
failure exit.
"""

import argparse
import csv
import json
import sys
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .data import DATASET_KINDS, DatasetSpec, make_problem, save_linear_system, split_holdout
from .errors import EmptyTrace, SplitOptError
from .ode import IntegratorConfig
from .optimizers import METHODS, RunConfig, StoppingRule, Trace, check_run, run
from .plotting import PALETTE, Series, render_line_chart

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
)


@dataclass
class ExperimentConfig:
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

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be at least 1")
        if not self.alphas:
            raise ValueError("alphas must be nonempty")
        for a in self.alphas:
            if not a > 0:
                raise ValueError(f"alphas must be positive, got {a!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not self.init_scale >= 0:  # NaN fails too
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} in methods")
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
    known = {f.name for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"{path}.{key}: unknown field")
    kwargs = {}
    for f in fields(cls):
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


def cmd_run(args) -> int:
    with open(args.config) as f:
        cfg = parse_experiment_config(json.load(f))
    if args.seed is not None:
        cfg.seed = args.seed
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

    jobs = []
    for method in cfg.methods:
        for alpha in cfg.alphas:
            for rep in range(cfg.repeat):
                run_cfg = RunConfig(
                    method=method,
                    alpha=alpha,
                    batch_size=cfg.batch_size,
                    seed=cfg.seed,
                    max_epochs=cfg.max_epochs,
                    stop=cfg.stop,
                    integrator=cfg.integrator,
                    init_scale=cfg.init_scale,
                    init_seed=cfg.seed + rep,
                )
                jobs.append(run_cfg)
    # Cells differ only in what the data never constrain (alpha, init
    # seed), so one check per method rejects a config before any cell runs.
    for c in {c.method: c for c in jobs}.values():
        try:
            check_run(pb, holdout, c)
        except (SplitOptError, ValueError) as exc:
            raise ValueError(f"config: {exc}") from None

    def run_cell(c):
        try:
            return run(pb, holdout, c)
        except (SplitOptError, ValueError) as exc:
            raise SplitOptError(
                f"method={c.method} alpha={c.alpha:g} init_seed={c.init_seed}: {exc}"
            ) from exc

    # Kaczmarz (h = inf) never reads alpha: one run per repeat, written under every alpha.
    def cell_of(c):
        return replace(c, alpha=cfg.alphas[0]) if c.method == "kaczmarz" else c

    cells = list(dict.fromkeys(map(cell_of, jobs)))
    threads = max(1, args.threads)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ran = dict(zip(cells, pool.map(run_cell, cells)))
    else:
        ran = {c: run_cell(c) for c in cells}
    traces = [replace(ran[cell_of(c)], alpha=c.alpha) for c in jobs]

    # Made only now, so a run that fails in a cell (an integrator out of
    # steps, say) leaves no empty directory behind.
    out_dir = Path(args.out or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for trace in traces:
        name = f"trace_{trace.method}_a{trace.alpha:g}_s{trace.seed}.csv"
        write_trace_csv(trace, out_dir / name)
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
            ]
        )
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows)
    print(f"wrote {len(traces)} trace files and summary.csv to {out_dir}")
    return 0


def cmd_bounds(args) -> int:
    if not (np.isfinite(args.t_max) and args.t_max >= 0):
        raise ValueError(f"--t-max must be finite and nonnegative, got {args.t_max!r}")
    for flag, value in (("--n", args.n), ("--points", args.points)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
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
    groups = {}
    total = 0
    for path in paths:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_HEADER:
                raise EmptyTrace(f"{path}: not a trace CSV (bad header)")
            for row in reader:
                total += 1
                key = (row["method"], float(row["alpha"]))
                groups.setdefault(key, {}).setdefault(row["seed"], []).append(row)
    if total == 0:
        raise EmptyTrace("no trace records in the given files")
    return groups


def cmd_plot(args) -> int:
    if args.out is None:
        raise ValueError("plot needs --out")
    groups = _read_traces(args.traces)
    series = []
    palette_idx = 0
    for (method, alpha), runs_by_seed in sorted(groups.items()):
        color = PALETTE[palette_idx % len(PALETTE)]
        palette_idx += 1
        first = True
        for seed in sorted(runs_by_seed):
            rows = [r for r in runs_by_seed[seed] if r["diverged"] == "0"]
            xs = [float(r[args.x_axis]) for r in rows]
            ys = [float(r[args.y]) for r in rows]
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
    parser.add_argument("--threads", type=int, default=1, help="worker cap for run grids")
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
        return args.func(args)
    except (SplitOptError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
