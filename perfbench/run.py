"""poisonridge benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the workload's CLI commands run in this process through
`poisonridge.cli.main`, closed loop with one client (plus the command's own
pool workers), again and again for S seconds; the end-to-end metrics are
printed.  With `--trace 1` the same commands run alternately untraced and
traced, the trials are replayed stage by stage, and the per-layer metrics
are printed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details (environment, run
counts, span tables) go to the lines before it and to
`.perfbench_out/<workload>/`.  The package is imported from `src/` of the
checkout; without it the benchmark exits with status 1.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

_LOADAVG = os.getloadavg()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_CHILDREN = 4  # extra fresh-process set-ups; setup_s is the median of 5
BLAS_PROBE_RUNS = 3
CHILD_TIMEOUT_S = 120


def _import_package():
    """Import poisonridge from this checkout's src/, and nowhere else."""
    if not (SRC / "poisonridge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no poisonridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # forked or spawned pool workers must find the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import poisonridge
    from poisonridge import cli
    if Path(poisonridge.__file__).resolve().parent != (SRC / "poisonridge").resolve():
        sys.exit(f"perfbench: imported poisonridge from {poisonridge.__file__}, not {SRC}")
    return cli


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload, seed: int, base: Path):
    """Import, IDX fixture and output directories: everything before the first call."""
    cli = _import_package()
    _fresh_dir(base)
    fixture = None
    if workload.name == "mnist-fixture":
        fixture = wl.write_idx_fixture(_fresh_dir(base / "fixture"), seed)
    rundir = _fresh_dir(base / "run")
    return cli, rundir, fixture


def run_commands(cli, argvs, tracer=None) -> tuple[list[float], str | None]:
    """Run CLI argument lists in order; wall time of each and the first failure.

    With a tracer, each `cli.main` call is a span.
    """
    walls, error = [], None
    sink = io.StringIO()
    for argv in argvs:
        span = tracer.span("cli.main", command=argv[0]) if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), span:
                rc = cli.main(argv)
        except Exception as exc:  # a crash fails the run, the benchmark goes on
            rc = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t)
        if rc != 0 and error is None:
            error = f"`{argv[0]}` returned {rc}"
    return walls, error


def one_run(cli, workload, rundir, seed, fixture, tracer=None):
    walls, error = run_commands(cli, workload.argvs(rundir, seed, fixture), tracer)
    check = workload.check(rundir)
    if error:
        check.failures.append(error)
    return walls, check


def serial_sweep(cli, base: Path, seed: int):
    """The sweep-axis grid run serially: its CSV and the sweep's wall time."""
    serial_dir = _fresh_dir(base / "serial")
    walls, error = run_commands(cli, [wl.sweep_argv(serial_dir, seed, 1)])
    return serial_dir / "sweep.csv", walls[0], error


def serial_mismatch(serial_csv, rundir, workload) -> list[str]:
    """Failure if the pooled run's CSV is not byte-equal to the serial one."""
    if serial_csv is None or (serial_csv.is_file() and serial_csv.read_bytes()
                              == (rundir / workload.primary).read_bytes()):
        return []
    return [f"--workers {workload.pool_workers} CSV differs from the serial CSV"]


def warm_up(cli, workload, base, rundir, seed, fixture):
    """One untimed run, so caches fill and lazy set-up finishes before timing.

    For a pooled workload this is the serial run of the same grid, whose CSV
    the pooled runs must match byte for byte.  Returns (serial CSV or None,
    serial sweep wall time or None, failures).
    """
    if workload.pool_workers > 1:
        serial_csv, wall, error = serial_sweep(cli, base, seed)
        return serial_csv, wall, [f"serial sweep: {error}"] if error else []
    _, check = one_run(cli, workload, rundir, seed, fixture)
    return None, None, [f"warm-up run: {f}" for f in check.failures]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child(args: list[str], env=None) -> float:
    """Run this script in a fresh process and return the number it prints last."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _done(start: float, walls, seconds: float) -> bool:
    """Stop when one more run would end further from `seconds` than now."""
    return time.perf_counter() - start + statistics.median(walls) / 2 >= seconds


def tail_percentile(values) -> str:
    """Highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"none (needs more than 10 runs, have {n})"
    k = n - 10
    return f"p{100.0 * k / n:.0f} = {sorted(values)[k - 1]:.4f}"


def tally(runs, items: int, global_failures) -> tuple[int, int, list[str]]:
    """Attempted and failed items over runs; a failed check fails the run's items."""
    attempted = failed = 0
    failures = list(global_failures)
    ref = runs[0][1].digest if runs else ""
    for i, (_, check) in enumerate(runs):
        attempted += items
        bad = list(check.failures)
        if check.digest != ref:
            bad.append("primary outputs differ from the first run's")
        failures += [f"run {i}: {f}" for f in bad]
        failed += items if bad or global_failures else check.error_items
    return attempted, failed, failures


# --- trace 0: end-to-end metrics ---

def measure_end_to_end(args, workload, cli, base, rundir, fixture, setup_s):
    serial_csv, _, global_failures = warm_up(cli, workload, base, rundir, args.seed, fixture)
    runs = []
    start = time.perf_counter()
    while True:
        walls, check = one_run(cli, workload, rundir, args.seed, fixture)
        runs.append((sum(walls), check))
        if _done(start, [w for w, _ in runs], args.seconds):
            break
    rss = peak_rss_mb()
    global_failures += serial_mismatch(serial_csv, rundir, workload)

    setups = [setup_s] + [
        child(["--workload", workload.name, "--seed", str(args.seed), "--setup-only", str(k)])
        for k in range(1, SETUP_CHILDREN + 1)
    ]
    attempted, failed, failures = tally(runs, workload.items, global_failures)
    walls = [w for w, _ in runs]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": (attempted - failed) / sum(walls),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
    }
    details = {
        "runs": len(runs),
        "wall_s_all": walls,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_all": setups,
        "error_frac": failed / attempted,
    }
    return values, attempted, failed, failures, details


# --- trace 1: per-layer metrics ---

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


TRACE_ROOTS = ("cli.main", "simulator.run_trial", "resolvent.quadratic_form_check")
TRACE_TAGS = {
    "simulator.solve_ridge": lambda a, k: dict(zip("pn", _arg(a, k, 0, "X_tilde").shape)),
    "simulator.empirical_efficacy": lambda a, k: {
        "m_test": _arg(a, k, 2, "m_test"), "p": len(_arg(a, k, 1, "v"))},
    "resolvent.quadratic_form_check": lambda a, k: {
        "check": _arg(a, k, 0, "check_name"), "p": _arg(a, k, 4, "p")},
    "resolvent.feature_resolvent": lambda a, k: dict(zip(("dim", "other"), a[0].shape)),
    "resolvent.gram_resolvent": lambda a, k: dict(zip(("other", "dim"), a[0].shape)),
}


def _traced_modules():
    from poisonridge import mnist, mp, report, resolvent, simulator, sweep, theory
    return (mp, theory, simulator, sweep, resolvent, mnist, report)


def _solve_gflop(p: int, n: int) -> tuple[float, float]:
    """Computed flops of `solve_ridge`: (Gram product, whole solve), in GFLOP.

    Gram 2*dim^2*other, Cholesky dim^3/3, and about 8*p*n for the
    right-hand side and the normal-equations residual.
    """
    dim, other = min(p, n), max(p, n)
    gram = 2.0 * dim * dim * other
    return gram / 1e9, (gram + dim ** 3 / 3.0 + 8.0 * p * n) / 1e9


def _inverse_gflop(dim: int, other: int) -> float:
    """Computed flops of a dense resolvent: Gram, Cholesky, cho_solve(I), residual."""
    return (2.0 * dim * dim * other + dim ** 3 / 3.0 + 2.0 * dim ** 3 + 2.0 * dim ** 3) / 1e9


def layer_metrics(cli_spans, replay_spans, n_traced, records, extras) -> dict:
    cli_tab, rep_tab = summarize(cli_spans), summarize(replay_spans)

    def cli_s(*names):  # inclusive seconds per traced run
        return sum(cli_tab.get(n, {}).get("total_s", 0.0) for n in names) / n_traced

    def rep_s(name):
        return rep_tab.get(name, {}).get("total_s", 0.0)

    solves = [s for s in replay_spans if s.name == "simulator.solve_ridge"]
    flops = [_solve_gflop(s.tags["p"], s.tags["n"]) for s in solves]
    solve_s = rep_s("simulator.solve_ridge")
    own = self_times(cli_spans)
    trials = [r for rs in records for r in rs]
    wall_ms = sorted(r.wall_time_ms for r in trials)
    run_s = cli_s("sweep.run_sweep")
    busy_s = sum(wall_ms) / 1e3 / n_traced
    checks = [s for s in cli_spans if s.name == "resolvent.quadratic_form_check"]
    inverses = [s for s in cli_spans
                if s.name in ("resolvent.feature_resolvent", "resolvent.gram_resolvent")]

    m = {
        "simulator.generate_s": rep_s("simulator.generate"),
        "simulator.poison_s": rep_s("simulator.apply_poison"),
        "simulator.center_s": rep_s("simulator.center"),
        "simulator.solve_s": solve_s,
        "simulator.efficacy_s": rep_s("simulator.empirical_efficacy"),
        "simulator.solve_primal": sum(s.tags["p"] <= s.tags["n"] for s in solves),
        "simulator.solve_dual": sum(s.tags["p"] > s.tags["n"] for s in solves),
        "simulator.gram_gflop": sum(g for g, _ in flops),
        "simulator.solve_gflops": sum(f for _, f in flops) / solve_s if solve_s else 0.0,
        "simulator.efficacy_draws": sum(s.tags["m_test"] * s.tags["p"] for s in replay_spans
                                        if s.name == "simulator.empirical_efficacy"),
        "simulator.blas_thread_speedup": extras.get("blas_thread_speedup", 0.0),
        "sweep.run_s": run_s,
        "sweep.worker_util": busy_s / (run_s * extras["workers"]) if run_s else 0.0,
        "sweep.parallel_speedup": extras.get("parallel_speedup", 0.0),
        "sweep.trial_ms_p50": statistics.median(wall_ms) if wall_ms else 0.0,
        "sweep.trial_ms_p90": statistics.quantiles(wall_ms, n=10)[-1] if len(wall_ms) > 1 else 0.0,
        "sweep.aggregate_s": cli_s("sweep.aggregate"),
        "sweep.csv_write_s": cli_s("sweep.write_records", "sweep.write_aggregates"),
        "sweep.csv_read_s": cli_s("sweep.read_records", "sweep.read_aggregates"),
        "sweep.error_rows": sum(r.is_error for r in trials) / n_traced,
        "report.make_report_s": cli_s("report.make_report"),
        "report.svg_bytes": extras.get("svg_bytes", 0),
        "resolvent.build_s": cli_s("resolvent.make_experiment", "resolvent.build_spiked"),
        "resolvent.inverse_s": cli_s("resolvent.feature_resolvent", "resolvent.gram_resolvent"),
        "resolvent.det_equiv_s": cli_s("resolvent.det_equiv_feature",
                                       "resolvent.det_equiv_feature_squared",
                                       "resolvent.det_equiv_gram",
                                       "resolvent.det_equiv_gram_squared"),
        "resolvent.check_self_s": sum(own[s.id] for s in checks) / n_traced,
        "resolvent.inverse_gflop": sum(_inverse_gflop(s.tags["dim"], s.tags["other"])
                                       for s in inverses) / n_traced,
        "mnist.load_s": cli_s("mnist.load_pair"),
        "mnist.task_s": cli_s("mnist.build_binary_task"),
        "mnist.trigger_s": cli_s("mnist.make_patch_trigger"),
        "mnist.experiment_s": cli_s("mnist.run_mnist_experiment"),
        "mnist.subsample_s": rep_s("mnist.subsample"),
        "theory.predict_calls": rep_tab.get("theory.predict", {}).get("calls", 0),
        "theory.predict_s": rep_s("theory.predict"),
        "cli.overhead_s": sum(own[s.id] for s in cli_spans if s.name == "cli.main") / n_traced,
        "trace.overhead_s": extras["trace_overhead_s"],
        "trace.spans": len(cli_spans) / n_traced,
    }
    for check in wl.RES_CHECKS:
        for p in wl.RES_SIZES:
            m[f"resolvent.{check}.p{p}_s"] = sum(
                s.duration for s in checks if s.tags["check"] == check and s.tags["p"] == p
            ) / n_traced
    return m


def measure_layers(args, workload, cli, base, rundir, fixture):
    import replay  # imports poisonridge, so only after setup() put src/ on the path
    tracer = Tracer(roots=TRACE_ROOTS, tags=TRACE_TAGS, capture=("sweep.run_sweep",))
    modules = _traced_modules()
    serial_csv, serial_wall, global_failures = warm_up(
        cli, workload, base, rundir, args.seed, fixture)
    plain, traced, sweep_walls, runs = [], [], [], []
    start = time.perf_counter()
    while True:
        walls, check = one_run(cli, workload, rundir, args.seed, fixture)
        plain.append(sum(walls))
        sweep_walls.append(walls[0])
        runs.append((sum(walls), check))
        with tracer.installed(modules):
            walls, check = one_run(cli, workload, rundir, args.seed, fixture, tracer)
        traced.append(sum(walls))
        runs.append((sum(walls), check))
        if _done(start, [a + b for a, b in zip(plain, traced)], args.seconds):
            break

    extras = {
        "workers": workload.pool_workers,
        "svg_bytes": runs[-1][1].svg_bytes,
        "trace_overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    global_failures += serial_mismatch(serial_csv, rundir, workload)
    if serial_csv is not None:
        extras["parallel_speedup"] = serial_wall / statistics.median(sweep_walls)
    if workload.name == "simulate-efficacy":
        probe = ["--workload", workload.name, "--seed", str(args.seed), "--blas-probe"]
        one_thread = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        extras["blas_thread_speedup"] = child(probe, env=one_thread) / child(probe)

    replayer = Tracer(tags=TRACE_TAGS)
    with open(rundir / workload.primary, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with replayer.installed(modules):
        if workload.name == "mnist-fixture":
            replayed = replay.replay_mnist(replayer, *fixture, args.seed)
        elif workload.name in ("sweep-axis", "simulate-efficacy"):
            m_test = wl.SWEEP_M_TEST if workload.name == "sweep-axis" else wl.SIM_M_TEST
            replayed = replay.replay_synthetic(replayer, rows, m_test)
        else:
            replayed = rows = []
    global_failures += [f"replay: {m}" for m in replay.mismatches(rows, replayed)]

    values = layer_metrics(tracer.spans, replayer.spans, len(traced),
                           tracer.returns["sweep.run_sweep"], extras)
    tracer.write(base / "spans-cli.jsonl")
    replayer.write(base / "spans-replay.jsonl")
    attempted, failed, failures = tally(runs, workload.items, global_failures)
    details = {
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "replayed_trials": len(replayed),
        "spans_cli": summarize(tracer.spans),
        "spans_replay": summarize(replayer.spans),
    }
    return values, attempted, failed, failures, details


def _metric_block(values: dict, specs: list[dict]) -> dict:
    names = {s["name"] for s in specs}
    if set(values) != names:
        raise RuntimeError(f"metrics out of step with {SPEC.name}: "
                           f"{sorted(set(values) ^ names)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, metavar="K",
                        help=argparse.SUPPRESS)  # child: time set-up K and exit
    parser.add_argument("--blas-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child: median wall of a few runs
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    base = OUT / workload.name

    if args.setup_only is not None:
        setup(workload, args.seed, base / f"setup{args.setup_only}")
        print(time.perf_counter() - _T0)
        return 0
    if args.blas_probe:
        probe_base = base / f"probe-{os.environ.get('OPENBLAS_NUM_THREADS', 'default')}"
        cli, rundir, fixture = setup(workload, args.seed, probe_base)
        argvs = workload.argvs(rundir, args.seed, fixture)
        print(statistics.median(sum(run_commands(cli, argvs)[0])
                                for _ in range(BLAS_PROBE_RUNS)))
        return 0

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    cli, rundir, fixture = setup(workload, args.seed, base)
    setup_s = time.perf_counter() - _T0

    env = envinfo.environment(_LOADAVG, workload.pool_workers)
    if args.trace:
        values, attempted, failed, failures, details = measure_layers(
            args, workload, cli, base, rundir, fixture)
        metrics = _metric_block(values, spec["per_layer"])
    else:
        values, attempted, failed, failures, details = measure_end_to_end(
            args, workload, cli, base, rundir, fixture, setup_s)
        metrics = _metric_block(values, spec["end_to_end"])

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                environment=env, failures=failures, details=details)
    (base / f"result-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for key, value in details.items():
        if not key.startswith("spans_"):
            print(f"  {key}: {value}")
    for key in ("spans_cli", "spans_replay"):
        for name, row in details.get(key, {}).items():
            print(f"  {key[6:]:6s} {name:40s} calls {row['calls']:6d}  "
                  f"total {row['total_s']:9.4f} s  self {row['self_s']:9.4f} s")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
