"""Command-line entry point.

Every writing command computes all of its outputs in memory and then hands
them to `_save`, which creates --out, writes each file and a manifest.json
with the full configuration, master seed and package version.  A refused run
therefore writes nothing, and neither does one that cannot allocate its
arrays.  `rerun <manifest>` reproduces the primary CSVs byte for byte on any
core count, for the OpenBLAS numpy's wheel bundles (else the computing
commands exit 2).  `simulate`, `sweep` and `mnist` run their trials through
`sweep.run_grid`, and `resolvent-check` its draws through
`resolvent.convergence_table`, on the threads of `blas.map_ahead`, which
sets their BLAS to one thread.  `sweep --workers` sets the thread count; its
default, the usable CPUs, is resolved when the command line is parsed, so
that manifest.json records the count that ran.
The rows of a draw group (the grid points that share c; for `mnist`, the
subsample size) are common random numbers, and the `seed` column of any row
redoes that row alone, bit for bit, on any core or worker count; the
`simulator` module docstring sets out how a trial shares its draw among its
points.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import __version__, mnist as mnist_mod, mp, report, resolvent, simulator, sweep as sweep_mod
from .blas import usable_cpus
from .errors import InvalidManifest, NonFiniteTransform, PoisonRidgeError
from .records import write_csv
from .theory import ModelParams, predict, predict_ridgeless


def _save(args, files: dict, summary: str) -> None:
    """Write a finished run: create --out, each file, then manifest.json.

    `files` maps a file name to the function that writes it at a path.
    Commands call this last, so a refused run writes nothing.
    """
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for name, write in files.items():
        paths.append(os.path.join(args.out, name))
        write(paths[-1])
    stored = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "args": stored,
        "master_seed": stored.get("seed"),
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {' and '.join(paths)} ({summary})")


def _record_files(name: str, records, fmt: str) -> dict:
    """The per-trial records of a run, as one CSV or JSONL file."""
    if fmt == "csv":
        return {f"{name}.csv": lambda path: sweep_mod.write_records(path, records)}

    def write_jsonl(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in records:
                fh.write(json.dumps(r.to_row(), sort_keys=True) + "\n")

    return {f"{name}.jsonl": write_jsonl}


def _save_records(args, name: str, records, extra_files=()) -> int:
    """Save a Monte Carlo run; its exit status is 1 when a trial failed."""
    errors = sum(r.is_error for r in records)
    files = {**_record_files(name, records, args.format), **dict(extra_files)}
    _save(args, files, f"{len(records)} records, {errors} error rows")
    return 1 if errors else 0


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def cmd_theory(args) -> int:
    params = ModelParams(c=args.c, lam=args.lam, theta=args.theta, v_norm=args.vnorm)
    if args.ridgeless:
        pred = predict_ridgeless(params)
        print(f"mode       ridgeless (c={args.c})")
    else:
        pred = predict(params)
        # predict reads only some of these; one that overflows is named, not fatal
        for label, transform in (("m", mp.mp_stieltjes), ("mtilde", mp.mp_companion),
                                 ("m'", mp.mp_stieltjes_derivative),
                                 ("mtilde'", mp.mp_companion_derivative)):
            try:
                value = repr(transform(args.c, -args.lam))
            except NonFiniteTransform:
                value = "not finite in double precision"
            print(f"{label + '(-lambda)':<18}{value}")
    print(f"mu         {pred.mu!r}")
    print(f"sigma_sq   {pred.sigma_sq!r}")
    print(f"eta        {pred.eta!r}")
    print(f"C          {pred.C_align!r}")
    return 0


def cmd_simulate(args) -> int:
    params = ModelParams(c=args.c, lam=args.lam, theta=args.theta, v_norm=args.vnorm)
    records = sweep_mod.run_grid(
        {0: params}, args.p, args.trials, args.seed, args.m_test,
        centering=simulator.Centering(args.centering),
    )
    return _save_records(args, "simulate", records)


def cmd_sweep(args) -> int:
    grid = sweep_mod.SweepGrid.builtin(p=args.p, trials=args.trials, master_seed=args.seed)
    mode = sweep_mod.AxisMode(args.mode)
    records = sweep_mod.run_sweep(grid, mode, m_test=args.m_test, workers=args.workers)
    agg_rows = sweep_mod.aggregate(records)
    return _save_records(args, "sweep", records, {
        "sweep_agg.csv": lambda path: sweep_mod.write_aggregates(path, agg_rows),
    })


def cmd_resolvent_check(args) -> int:
    rows = resolvent.convergence_table(
        c=args.c, tau=args.tau, z=args.z, sizes=args.p, n_seeds=args.seeds,
        master_seed=args.seed,
    )
    _save(args, {
        "resolvent_checks.csv": lambda path: write_csv(path, resolvent.CHECK_FIELDS, rows),
    }, f"{len(rows)} rows")
    return 0


def cmd_mnist(args) -> int:
    images, labels = mnist_mod.load_pair(args.images, args.labels)
    neg, pos = args.digit_neg, args.digit_pos
    if args.swap_digits:  # poison digit_pos instead: the digits swap roles, so y becomes -y
        neg, pos = pos, neg
    task = mnist_mod.build_binary_task(images, labels, digit_neg=neg, digit_pos=pos,
                                       scale=args.scale)
    trigger = mnist_mod.make_patch_trigger(
        offset=(args.patch_row, args.patch_col), size=args.patch_size,
        v_norm_target=args.vnorm, rows=images.rows, cols=images.cols,
    )
    points = itertools.product(args.theta, args.lam, args.subsample_n)
    records = mnist_mod.run_mnist_grid(
        task, trigger, dict(enumerate(points)), trials=args.trials, seed=args.seed,
        m_test=args.m_test,
    )
    return _save_records(args, "mnist", records)


def cmd_report(args) -> int:
    axes = args.axis.split(",") if args.axis else None
    written = report.make_report(args.input, args.kind, axes=axes, outdir=args.outdir)
    for path in written:
        print(f"wrote {path}")
    return 0


# argparse dests whose flag is not "--" + dest with "_" as "-"; older
# manifests stored --swap-classes under its own name, which the rule maps
_RENAMED_FLAGS = {"lam": "--lambda", "swap_digits": "--swap-classes"}


def cmd_rerun(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
            command, stored = manifest["command"], dict(manifest["args"])
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidManifest(
                f"{args.manifest} is not a run manifest ({type(exc).__name__}: {exc})"
            ) from exc
    stored.pop("func", None)
    stored.pop("builtin", None)  # older sweep manifests carry the removed --builtin
    argv = [command]
    for key, value in stored.items():
        flag = _RENAMED_FLAGS.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif value is not None:
            # --flag=value: argparse reads a separate "-1e-05" as a flag
            argv.append(f"{flag}={value}")
    return main(argv)


def _add_common_output(sub, default_out: str) -> None:
    sub.add_argument("--out", default=default_out, help="output directory")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.add_argument("--m-test", type=int, default=10000,
                     help="test points per trial for the Monte Carlo efficacy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisonridge",
        description="Closed-form predictions and Monte Carlo verification for "
                    "backdoor poisoning of high-dimensional ridge regression.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("theory", help="evaluate the closed-form predictions")
    s.add_argument("--c", type=float, required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=0.1)
    s.add_argument("--theta", type=float, default=0.1)
    s.add_argument("--vnorm", type=float, default=1.0)
    s.add_argument("--ridgeless", action="store_true")
    s.set_defaults(func=cmd_theory)

    s = subs.add_parser("simulate", help="Monte Carlo trials at one parameter point")
    s.add_argument("--p", type=int, default=500)
    s.add_argument("--c", type=float, default=0.1)
    s.add_argument("--lambda", dest="lam", type=float, default=0.1)
    s.add_argument("--theta", type=float, default=0.1)
    s.add_argument("--vnorm", type=float, default=1.0)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--centering", choices=("population", "empirical"), default="population")
    _add_common_output(s, "simulate_out")
    s.set_defaults(func=cmd_simulate)

    s = subs.add_parser("sweep", help="run the built-in parameter grid")
    s.add_argument("--p", type=int, default=500)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=("full", "one-at-a-time"), default="one-at-a-time")
    s.add_argument("--workers", type=int, default=usable_cpus(),
                   help="worker threads (default: the usable CPUs)")
    _add_common_output(s, "sweep_out")
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("resolvent-check", help="deterministic-equivalent convergence CSV")
    s.add_argument("--p", type=_ints, default=[100, 200, 400],
                   help="comma-separated matrix sizes")
    s.add_argument("--c", type=float, default=0.5)
    s.add_argument("--tau", type=float, default=1.0)
    s.add_argument("--z", type=float, default=-0.5)
    s.add_argument("--seeds", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="resolvent_out")
    s.set_defaults(func=cmd_resolvent_check)

    s = subs.add_parser("mnist", help="poisoned-ridge runs on IDX image data")
    s.add_argument("--images", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--digit-neg", type=int, default=0)
    s.add_argument("--digit-pos", type=int, default=1)
    s.add_argument("--scale", choices=("raw", "unit"), default="unit")
    s.add_argument("--patch-row", type=int, default=2)
    s.add_argument("--patch-col", type=int, default=2)
    s.add_argument("--patch-size", type=int, default=3)
    s.add_argument("--vnorm", type=float, default=1.0)
    s.add_argument("--theta", type=_floats, default=[0.1], help="comma-separated values")
    s.add_argument("--lambda", dest="lam", type=_floats, default=[0.1],
                   help="comma-separated values")
    s.add_argument("--subsample-n", type=_ints, default=[7840],
                   help="comma-separated subsample sizes (controls c = p/n)")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--swap-classes", dest="swap_digits", action="store_true",
                   help="exchange the roles of --digit-neg and --digit-pos")
    _add_common_output(s, "mnist_out")
    s.set_defaults(func=cmd_mnist)

    s = subs.add_parser("report", help="SVG figures + aggregate CSV from a sweep CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--kind", choices=sorted(report.KINDS), required=True)
    s.add_argument("--axis", default=None, help="comma-separated axes (default: auto)")
    s.add_argument("--outdir", default=None)
    s.set_defaults(func=cmd_report)

    s = subs.add_parser("rerun", help="reproduce a run from its manifest")
    s.add_argument("manifest")
    s.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PoisonRidgeError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
