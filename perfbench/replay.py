"""Stage-by-stage serial replay of the CLI's trials, for per-stage times.

`simulator.run_trial` draws the data inline and the MNIST trial loop
subsamples inline, so neither stage is a function call a tracer can wrap.
The replay repeats each trial from the same Philox stream, one public
function per stage, under a span per stage.  Its `mu_emp`, `sigma2_emp`
and `eta_emp_mc` must equal the CLI's rows bit for bit, which shows that
the replay timed the same work the CLI did.
"""

from __future__ import annotations

import numpy as np

from poisonridge import mnist, simulator, theory

import workloads as wl

COMPARED = ("mu_emp", "sigma2_emp", "eta_emp_mc")


def _philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _solve_and_score(dataset, theta, lam, v, m_test, rng):
    X_tilde, w_tilde, x_bar, w_bar = simulator.center(dataset, theta)
    sol = simulator.score_statistics(
        simulator.solve_ridge(X_tilde, w_tilde, lam, x_bar, w_bar), v)
    eta = simulator.empirical_efficacy(sol, v, m_test, rng)
    return {"mu_emp": sol.mu_emp, "sigma2_emp": sol.sigma_sq_emp, "eta_emp_mc": eta}


def replay_synthetic(tracer, rows, m_test: int) -> list[dict]:
    """Replay `run_trial` (population centering) for each CSV row."""
    out = []
    for row in rows:
        p, n, seed = int(row["p"]), int(row["n"]), int(row["seed"])
        params = theory.ModelParams(c=float(row["c_target"]), lam=float(row["lambda"]),
                                    theta=float(row["theta"]), v_norm=float(row["v_norm"]))
        with tracer.span("replay.trial", new_trace=True, p=p, n=n):
            v = simulator.default_trigger(p, params.v_norm)
            rng = _philox(seed)
            with tracer.span("simulator.generate", p=p, n=n):
                X = rng.standard_normal((p, n))
                y = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
            dataset = simulator.apply_poison(X, y, params.theta, v, rng,
                                             centering=simulator.Centering.POPULATION)
            out.append(_solve_and_score(dataset, params.theta, params.lam, v,
                                        m_test, rng))
            theory.predict(params)
    return out


def replay_mnist(tracer, images_path, labels_path, seed: int) -> list[dict]:
    """Replay the `mnist` command's single grid point, trial by trial."""
    images, labels = mnist.load_pair(images_path, labels_path)
    task = mnist.build_binary_task(images, labels)
    (r0, c0), size = wl.MNIST_PATCH
    trigger = mnist.make_patch_trigger(offset=(r0, c0), size=size,
                                       v_norm_target=wl.MNIST_VNORM,
                                       rows=images.rows, cols=images.cols)
    n_avail = task.X.shape[1]
    p = task.X.shape[0]
    params = theory.ModelParams(c=p / wl.MNIST_SUBSAMPLE, lam=wl.MNIST_LAMBDA,
                                theta=wl.MNIST_THETA, v_norm=float(np.linalg.norm(trigger.v)))
    out = []
    with tracer.span("replay.experiment"):
        theory.predict(params)
        for ti in range(wl.MNIST_TRIALS):
            with tracer.span("replay.trial", new_trace=True, p=p, n=wl.MNIST_SUBSAMPLE):
                rng = simulator.trial_rng(seed, 0, ti)
                with tracer.span("mnist.subsample", n=wl.MNIST_SUBSAMPLE):
                    idx = rng.choice(n_avail, size=wl.MNIST_SUBSAMPLE, replace=False)
                    X = task.X[:, idx]
                    y = task.y[idx].copy()
                dataset = simulator.apply_poison(X, y, wl.MNIST_THETA, trigger.v, rng,
                                                 centering=simulator.Centering.EMPIRICAL)
                out.append(_solve_and_score(dataset, wl.MNIST_THETA,
                                            wl.MNIST_LAMBDA, trigger.v, wl.MNIST_M_TEST, rng))
    return out


def mismatches(rows, replayed) -> list[str]:
    """Rows whose replayed values differ from the CLI's in any bit."""
    bad = []
    if len(rows) != len(replayed):
        return [f"{len(replayed)} replayed trials for {len(rows)} rows"]
    for row, rep in zip(rows, replayed):
        for col in COMPARED:
            cli_value = float(row[col])
            if not (cli_value == rep[col] or (np.isnan(cli_value) and np.isnan(rep[col]))):
                bad.append(f"grid {row['grid_index']} trial {row['trial_index']} {col}: "
                           f"cli {cli_value!r} replay {rep[col]!r}")
    return bad
