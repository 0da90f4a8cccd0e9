"""Acceptance gate: one test per release criterion.

Each test prints a `criterion N: PASS/FAIL` line with the measured
numbers (visible with `pytest -s`, or on failure), and `pytest -v`
itself gives the per-criterion pass/fail verdict via the test names.
"""

import time
from math import comb

import numpy as np

from dimsched.acquisition import expected_improvement
from dimsched.direct import Bounds, DirectConfig, direct_minimize
from dimsched.gp import (
    Dataset,
    KernelHyperparams,
    gp_fit,
    gp_predict,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
)
from dimsched.objectives import benchmark_catalog, make_lotka_volterra_objective
from dimsched.optimize import (
    RunConfig,
    initial_design,
    run_dsa,
    run_dsa_parallel,
    run_bo,
)
from test_direct import rowwise


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def random_instance(rng, max_n=12, max_d=5):
    n = int(rng.integers(3, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Y = rng.normal(size=n)
    hyper = KernelHyperparams(
        log_lengthscales=rng.uniform(-1.0, 1.0, size=d),
        log_signal_variance=float(rng.uniform(-1.0, 1.0)),
        log_noise_variance=float(rng.uniform(-6.0, -2.0)),
    )
    return Dataset(X, Y), hyper


def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        data, hyper = random_instance(rng)
        model = gp_fit(data, hyper)
        x_star = rng.uniform(-2.0, 2.0, size=data.d)

        # naive oracle: explicit inverse of the full kernel matrix
        K = kernel_matrix(data.X, data.X, hyper) + np.exp(
            hyper.log_noise_variance
        ) * np.eye(data.n)
        K_inv = np.linalg.inv(K)
        k_star = kernel_matrix(data.X, x_star[None, :], hyper)[:, 0]
        shift = data.Y.mean()
        mean_o = shift + k_star @ K_inv @ (data.Y - shift)
        var_o = np.exp(hyper.log_signal_variance) - k_star @ K_inv @ k_star

        (mean,), (var,) = gp_predict(model, x_star[None, :])
        rel_mean = abs(mean - mean_o) / max(abs(mean_o), 1e-12)
        rel_var = abs(var - max(var_o, 0.0)) / max(abs(var_o), 1e-12)
        worst = max(worst, rel_mean, rel_var)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    verdict(1, ok, f"worst relative error {worst:.3e}, {elapsed:.2f}s (limits 1e-8, 10s)")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_2_lml_gradient_check():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        data, hyper = random_instance(rng)
        theta = hyper.to_vector()
        grad = lml_gradient(data, hyper)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                log_marginal_likelihood(data, KernelHyperparams.from_vector(up))
                - log_marginal_likelihood(data, KernelHyperparams.from_vector(dn))
            ) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(fd), 1e-4)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(2, ok, f"worst relative error {worst:.3e}, {elapsed:.2f}s (limits 1e-4, 30s)")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_3_ei_monte_carlo():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    n_samples = 1_000_000
    half = rng.standard_normal(n_samples // 2)
    z = np.concatenate([half, -half])  # antithetic pairs, still 1e6 samples
    for _ in range(20):
        mu = float(rng.uniform(-1.0, 1.0))
        sigma = float(rng.uniform(0.05, 1.0))
        y_best = float(rng.uniform(-1.0, 1.0))
        mc = float(np.mean(np.maximum(y_best - (mu + sigma * z), 0.0)))
        # a GP whose posterior at x=0 has exactly these moments: one
        # training point far enough away that its kernel weight vanishes
        model = gp_fit(
            Dataset(np.array([[30.0]]), np.array([mu])),
            KernelHyperparams(
                log_lengthscales=np.zeros(1),
                log_signal_variance=float(np.log(sigma**2)),
                log_noise_variance=-12.0,
            ),
        )
        (closed,) = expected_improvement(model, y_best, np.zeros((1, 1)))
        worst = max(worst, abs(closed - mc))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and elapsed < 60.0
    verdict(3, ok, f"worst absolute error {worst:.3e}, {elapsed:.2f}s (limits 2e-3, 60s)")
    assert worst < 2e-3
    assert elapsed < 60.0


def six_hump_camel(x):
    x1, x2 = x[0], x[1]
    return float(
        (4 - 2.1 * x1**2 + x1**4 / 3) * x1**2 + x1 * x2 + (-4 + 4 * x2**2) * x2**2
    )


def test_criterion_4_direct_quality():
    t0 = time.perf_counter()
    bounds2 = Bounds([-3.0, -2.0], [3.0, 2.0])

    # dense-grid oracle for the camel optimum
    g1 = np.linspace(-3.0, 3.0, 2001)
    g2 = np.linspace(-2.0, 2.0, 2001)
    X1, X2 = np.meshgrid(g1, g2)
    grid = (4 - 2.1 * X1**2 + X1**4 / 3) * X1**2 + X1 * X2 + (-4 + 4 * X2**2) * X2**2
    grid_opt = float(grid.min())

    _, f_camel, evals_camel = direct_minimize(
        rowwise(six_hump_camel), bounds2, DirectConfig(max_evals=1000, max_iters=200)
    )
    camel_ok = f_camel <= grid_opt + 1e-2 and evals_camel <= 1000

    quad_shift = np.array([0.3, -0.7, 1.1, 0.5])

    def quad(x):
        return float(np.sum((np.asarray(x) - quad_shift) ** 2))

    bounds4 = Bounds(np.full(4, -2.0), np.full(4, 2.0))
    _, f_quad, evals_quad = direct_minimize(
        rowwise(quad), bounds4, DirectConfig(max_evals=1500, max_iters=300)
    )
    quad_ok = f_quad <= 1e-3 and evals_quad <= 1500

    def record_seq(target):
        seq = []

        def wrapped(x):
            y = target(x)
            seq.append((tuple(np.asarray(x)), y))
            return y

        direct_minimize(rowwise(wrapped), bounds2, DirectConfig(max_evals=400, max_iters=100))
        return seq

    deterministic = record_seq(six_hump_camel) == record_seq(six_hump_camel)
    elapsed = time.perf_counter() - t0
    ok = camel_ok and quad_ok and deterministic and elapsed < 60.0
    verdict(
        4,
        ok,
        f"camel {f_camel:.6f} vs grid {grid_opt:.6f} in {evals_camel} evals; "
        f"4-d quadratic {f_quad:.2e} in {evals_quad} evals; "
        f"deterministic={deterministic}; {elapsed:.2f}s",
    )
    assert camel_ok
    assert quad_ok
    assert deterministic
    assert elapsed < 60.0


def test_criterion_5_dsa_state_machine():
    t0 = time.perf_counter()
    d = 6
    evaluations = []

    def objective(x):
        x = np.asarray(x, dtype=float)
        evaluations.append(x.copy())
        return float(np.sum(x**2))

    config = RunConfig(
        n_init=10, max_iter=50, subset_size=2, pca_period=10, seed=505,
        direct_config=DirectConfig(max_evals=150, max_iters=50),
    )
    bounds = Bounds(np.full(d, -3.0), np.full(d, 3.0))
    result = run_dsa(objective, bounds, config)

    eval_count_ok = len(evaluations) == 10 + 50
    all_y = [float(np.sum(x**2)) for x in evaluations]
    incumbent_ok = result.incumbent.value == min(all_y)

    # trace replay: incumbent is the running min, and every proposal is
    # the incumbent-of-the-moment modified only on its subset
    design_y = all_y[:10]
    inc_x = evaluations[int(np.argmin(design_y))].copy()
    inc_y = min(design_y)
    clamp_ok, running_ok, growth_ok = True, True, True
    sizes: dict = {}
    for i, rec in enumerate(result.records):
        x = evaluations[10 + i]
        off = [j for j in range(d) if j not in rec.subset]
        clamp_ok &= bool(np.array_equal(x[off], inc_x[off]))
        if rec.y < inc_y:
            inc_y, inc_x = rec.y, x.copy()
        running_ok &= rec.y_best == inc_y
        expected = sizes.get(rec.subset, 10) + 1
        growth_ok &= rec.gp_size == expected
        sizes[rec.subset] = expected
    registry_ok = result.gp_count <= comb(d, 2) and len(sizes) == result.gp_count
    elapsed = time.perf_counter() - t0
    ok = all([eval_count_ok, incumbent_ok, clamp_ok, running_ok, growth_ok, registry_ok])
    ok = ok and elapsed < 60.0
    verdict(
        5,
        ok,
        f"evals={eval_count_ok} incumbent={incumbent_ok} clamp={clamp_ok} "
        f"running-best={running_ok} growth={growth_ok} registry={registry_ok}; "
        f"{elapsed:.2f}s",
    )
    assert eval_count_ok and incumbent_ok and clamp_ok
    assert running_ok and growth_ok and registry_ok
    assert elapsed < 60.0


# A 10-d benchmark whose optimum is far from the box center: the inner
# solver's first probe is always the center, so a center-optimal function
# (e.g. the sphere) would make the comparison trivial for both loops.
CAMPAIGN_BENCHMARK = "styblinski_tang-10"
CAMPAIGN_CONFIG = dict(
    n_init=20,
    subset_size=2,
    pca_period=50,
    retrain_period=10,
    train_max_iter=100,
    retrain_max_iter=20,
    direct_config=DirectConfig(max_evals=150, max_iters=50),
)


def paired_run(seed, max_iter):
    spec = benchmark_catalog()[CAMPAIGN_BENCHMARK]
    config = RunConfig(seed=seed, max_iter=max_iter, **CAMPAIGN_CONFIG)
    rng = np.random.default_rng(seed)
    initial = initial_design(spec.evaluator, spec.bounds, config.n_init, rng)
    bo = run_bo(spec.evaluator, spec.bounds, config, initial=initial)
    dsa = run_dsa(spec.evaluator, spec.bounds, config, initial=initial)
    return bo, dsa


def test_criterion_6_headline_comparison():
    t0 = time.perf_counter()
    bo_comp, dsa_comp, wins = [], [], 0
    details = []
    for seed in range(4):
        bo, dsa = paired_run(seed, max_iter=500)
        bo_comp.append(bo.computation_ms)
        dsa_comp.append(dsa.computation_ms)
        if dsa.incumbent.value <= bo.incumbent.value:
            wins += 1
        details.append(
            f"seed {seed}: best dsa {dsa.incumbent.value:.3e} vs bo "
            f"{bo.incumbent.value:.3e}, comp {dsa.computation_ms:.0f}ms vs "
            f"{bo.computation_ms:.0f}ms"
        )
    ratio = float(np.mean(dsa_comp)) / float(np.mean(bo_comp))
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.5 and wins >= 2 and elapsed < 1800.0
    verdict(
        6,
        ok,
        f"computation ratio {ratio:.3f} (<0.5), objective wins {wins}/4 (>=2), "
        f"{elapsed:.0f}s (<1800s); " + "; ".join(details),
    )
    assert ratio < 0.5
    assert wins >= 2
    assert elapsed < 1800.0


def test_criterion_7_subset_size_sweep():
    t0 = time.perf_counter()
    spec = benchmark_catalog()[CAMPAIGN_BENCHMARK]
    comps = {k: [] for k in (1, 2, 3, 4)}
    # Seed by seed with k inside, so a change in host load hits every k alike.
    for seed in range(5):
        for k in comps:
            config = RunConfig(
                seed=seed, max_iter=150,
                **{**CAMPAIGN_CONFIG, "subset_size": k},
            )
            result = run_dsa(spec.evaluator, spec.bounds, config)
            comps[k].append(result.computation_ms)
    mean_comp = [float(np.mean(c)) for c in comps.values()]
    monotone = all(b > a for a, b in zip(mean_comp, mean_comp[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and elapsed < 2700.0
    verdict(
        7,
        ok,
        "mean computation ms by subset size "
        + ", ".join(f"k={k}: {c:.0f}" for k, c in zip((1, 2, 3, 4), mean_comp))
        + f"; monotone={monotone}; {elapsed:.0f}s (<2700s)",
    )
    assert monotone
    assert elapsed < 2700.0


def test_criterion_8_ode_standin():
    t0 = time.perf_counter()
    spec = make_lotka_volterra_objective(seed=0, noise_std=0.0)
    truth = np.array([1.5, 1.0, 3.0, 1.0])
    at_truth = spec.evaluator(truth)
    truth_ok = abs(at_truth) < 1e-10

    rng = np.random.default_rng(808)
    probes = rng.uniform(
        spec.bounds.lower, spec.bounds.upper, size=(10_000, spec.dimension)
    )
    probe_values = np.array([spec.evaluator(p) for p in probes])
    percentile_1 = float(np.percentile(probe_values, 1))

    config = RunConfig(
        n_init=20, max_iter=300, subset_size=2, pca_period=50, seed=0,
        train_max_iter=100, retrain_max_iter=30,
        direct_config=DirectConfig(max_evals=150, max_iters=50),
    )
    result = run_dsa(spec.evaluator, spec.bounds, config)
    search_ok = result.incumbent.value < percentile_1
    elapsed = time.perf_counter() - t0
    ok = truth_ok and search_ok and elapsed < 300.0
    verdict(
        8,
        ok,
        f"objective at truth {at_truth:.3e} (<1e-10); search best "
        f"{result.incumbent.value:.3e} vs 1st percentile {percentile_1:.3e}; "
        f"{elapsed:.0f}s (<300s)",
    )
    assert truth_ok
    assert search_ok
    assert elapsed < 300.0


def test_criterion_9_parallel_equivalence():
    t0 = time.perf_counter()

    def sphere(x):
        return float(np.sum(np.asarray(x) ** 2))

    bounds = Bounds(np.full(4, -2.0), np.full(4, 2.0))
    config = RunConfig(
        n_init=8, max_iter=40, subset_size=2, pca_period=10, seed=909,
        direct_config=DirectConfig(max_evals=150, max_iters=50),
    )
    seq = run_dsa(sphere, bounds, config)
    par1 = run_dsa_parallel(sphere, bounds, config, workers=1)

    # trace equivalence on every deterministic field; the wall-clock
    # columns are excluded (they can never reproduce exactly)
    def fields(r):
        return (r.iter, r.subset, tuple(r.x), r.y, r.y_best, r.gp_size)

    equal = len(seq.records) == len(par1.records) and all(
        fields(a) == fields(b) for a, b in zip(seq.records, par1.records)
    )

    evaluations = []

    def recording(x):
        x = np.asarray(x, dtype=float)
        evaluations.append(float(np.sum(x**2)))
        return evaluations[-1]

    par4 = run_dsa_parallel(recording, bounds, config, workers=4)
    incumbent_ok = par4.incumbent.value == min(
        list(par4.design.Y) + evaluations[config.n_init:]
    )
    budget_ok = len(evaluations) == config.n_init + config.max_iter
    elapsed = time.perf_counter() - t0
    ok = equal and incumbent_ok and budget_ok and elapsed < 300.0
    verdict(
        9,
        ok,
        f"workers=1 trace equal={equal}; workers=4 incumbent invariant="
        f"{incumbent_ok}, budget={budget_ok}; {elapsed:.0f}s (<300s)",
    )
    assert equal
    assert incumbent_ok
    assert budget_ok
    assert elapsed < 300.0
