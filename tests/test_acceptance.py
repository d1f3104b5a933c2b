"""End-to-end acceptance battery, one test per release criterion.

Each test prints a single PASS/FAIL line to the terminal (bypassing
capture) so a full run yields a visible ten-line scorecard. The expensive
trained models come from session-scoped fixtures; per-criterion wall-time
budgets count the training time recorded by those fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from cdrm import binref, data, inference, kde, metrics, model, nnet, rules
from cdrm.cli import run as cli_run
from conftest import param_grad, train_toy

ACCEPT_ALPHA = 0.60
GAP_PROBES = np.linspace(-0.30, 0.30, 21)
LEFT_BAND = np.linspace(-0.95, -0.40, 10)
RIGHT_BAND = np.linspace(0.40, 0.95, 10)

# multimodal run: under the default 10-step chains the negatives pile up
# on the field's plateau and the doubled dataset never separates into two
# ridges; 3-step chains keep them spread out, which sinks the
# between-modes band while both ridges sharpen
MM_SEED = 2
MM_ALPHA = 0.50
MM_STEPS = 3

ROOM_SEEDS = (0, 1, 2)
ROOM_EPOCHS = 60
ROOM_BATCH = 16
ROOM_LR = 6e-3
ROOM_GRID = 20
ROOM_CHAIN = (256, 50)
ROOM_ALPHA = 0.50
# the walk's median pairwise distance (~0.36) spans the unvisited box, so
# the default bandwidth blurs never-visited into rarely-visited; 0.06
# matches the walk's local step scale and keeps the box at zero density
ROOM_KDE_BW = 0.06


def announce(capsys, line):
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="session")
def multimodal_model():
    return train_toy(MM_SEED, multimodal=True, langevin_steps=MM_STEPS)


@pytest.fixture(scope="session")
def binref_model():
    return train_toy(13, learning_rate=6e-3)


def probe(m, x, seed, alpha=ACCEPT_ALPHA):
    return inference.infer(m, np.array([x]), np.empty(0), alpha=alpha, seed=seed)


def logit(net, x):
    return float(net.forward_batch(x[None, :])[0])


def test_c01_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for net_index in range(20):
        if net_index == 0:
            layer_dims = [8, 16, 8, 1]
        else:
            depth = int(rng.integers(1, 3))
            caps = [16, 8]
            layer_dims = (
                [int(rng.integers(1, 9))]
                + [int(rng.integers(2, caps[j] + 1)) for j in range(depth)]
                + [1]
            )
        net = nnet.MlpNetwork.initialize(layer_dims, seed=100 + net_index)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, layer_dims[0])

            fd_in = np.zeros(layer_dims[0])
            for j in range(layer_dims[0]):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd_in[j] = (logit(net, xp) - logit(net, xm)) / (2 * h)
            an_in = net.forward_and_grad_input_batch(x[None, :])[1][0]
            err_in = np.abs(fd_in - an_in).max() / max(
                np.abs(fd_in).max(), np.abs(an_in).max(), 1e-12
            )

            # params holds each layer's weights row by row, then its bias
            picks = rng.choice(net.n_params, size=min(40, net.n_params), replace=False)
            grad = param_grad(net, x[None, :], np.ones(1))
            fd_p, an_p = [], []
            for p in picks:
                old = net.params[p]
                net.params[p] = old + h
                fp = logit(net, x)
                net.params[p] = old - h
                fm = logit(net, x)
                net.params[p] = old
                fd_p.append((fp - fm) / (2 * h))
                an_p.append(grad[p])
            fd_p, an_p = np.array(fd_p), np.array(an_p)
            err_p = np.abs(fd_p - an_p).max() / max(
                np.abs(fd_p).max(), np.abs(an_p).max(), 1e-12
            )
            worst = max(worst, err_in, err_p)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    announce(
        capsys,
        f"[C1] gradient finite-difference battery: {'PASS' if ok else 'FAIL'} "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)",
    )
    assert worst < 1e-4
    assert elapsed < 5.0


def test_c02_gap_region_reports_pure_epistemic(toy_model_1, capsys):
    t0 = time.perf_counter()
    m = toy_model_1.model
    n_empty = 0
    for i, x in enumerate(GAP_PROBES):
        r = probe(m, x, seed=rules.derive_seed(1, 1000 + i))
        n_empty += r.valid_count == 0 and r.eu == 1.0
    elapsed = toy_model_1.seconds + (time.perf_counter() - t0)
    ok = n_empty >= 19 and elapsed < 120.0
    announce(
        capsys,
        f"[C2] no-data gap yields empty valid set and EU=1: "
        f"{'PASS' if ok else 'FAIL'} ({n_empty}/21 probes, {elapsed:.0f}s)",
    )
    assert n_empty >= 19
    assert elapsed < 120.0


def test_c03_aleatoric_bands_disentangle(toy_trio, capsys):
    results = {}
    for seed, trained in toy_trio.items():
        means = []
        for xs, base in ((LEFT_BAND, 2000), (RIGHT_BAND, 3000)):
            vals = []
            for i, x in enumerate(xs):
                r = probe(trained.model, x, seed=rules.derive_seed(seed, base + i))
                vals.append(np.nan if r.au is None else r.au)
            means.append(float(np.mean(vals)))
        left, right = means
        results[seed] = (left, right, left < 0.10 and 0.20 <= right <= 0.45)
    wins = sum(1 for _, _, ok in results.values() if ok)
    detail = ", ".join(
        f"s{s}: L={l:.3f} R={r:.3f}{'+' if ok else '-'}"
        for s, (l, r, ok) in results.items()
    )
    ok = wins >= 2
    announce(
        capsys,
        f"[C3] clean/noisy AU separation on {len(results)} seeds: "
        f"{'PASS' if ok else 'FAIL'} ({wins}/3 in band; {detail})",
    )
    assert wins >= 2


def test_c04_multimodal_predictions_do_not_average(
    multimodal_model, toy_trio, capsys
):
    mm = multimodal_model.model
    uni = toy_trio[MM_SEED].model
    off_mode = near_zero = empty = 0
    mm_au, uni_au = [], []
    for i, x in enumerate(LEFT_BAND):
        r = probe(mm, x, seed=rules.derive_seed(MM_SEED, 5000 + i), alpha=MM_ALPHA)
        ru = probe(uni, x, seed=rules.derive_seed(MM_SEED, 2000 + i), alpha=MM_ALPHA)
        s = np.sin(x)
        if r.prediction is None:
            empty += 1
        else:
            p = float(r.prediction[0])
            if min(abs(p - s), abs(p + s)) > 0.15:
                off_mode += 1
            if abs(s) > 0.45 and abs(p) <= 0.15:
                near_zero += 1
        mm_au.append(np.nan if r.au is None else r.au)
        uni_au.append(np.nan if ru.au is None else ru.au)
    mm_mean, uni_mean = float(np.mean(mm_au)), float(np.mean(uni_au))
    ok = off_mode == 0 and near_zero == 0 and empty == 0 and mm_mean > uni_mean
    announce(
        capsys,
        f"[C4] multimodal predictions stay on a mode: {'PASS' if ok else 'FAIL'} "
        f"(off-mode {off_mode}, near-zero {near_zero}, empty {empty}; "
        f"AU multimodal {mm_mean:.3f} vs unimodal {uni_mean:.3f})",
    )
    assert off_mode == 0
    assert near_zero == 0
    assert empty == 0
    assert mm_mean > uni_mean


@pytest.fixture(scope="session")
def room_models():
    out = []
    for seed in ROOM_SEEDS:
        t0 = time.perf_counter()
        ds = data.gen_room(5000, seed=seed)
        cfg = model.TrainConfig(
            epochs=ROOM_EPOCHS,
            positive_batch=ROOM_BATCH,
            learning_rate=ROOM_LR,
            seed=seed,
        )
        m, _ = model.fit(ds, cfg, bandwidth=ROOM_KDE_BW)
        out.append((seed, m, time.perf_counter() - t0))
    return out


def test_c05_room_walk_uncertainty_maps(room_models, capsys):
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed, m, _ in room_models:
        cfg_inf = replace(inference.DEFAULT_CHAIN, n_samples=ROOM_CHAIN[0], steps=ROOM_CHAIN[1])
        ev = metrics.evaluate_room(
            m,
            grid_resolution=ROOM_GRID,
            langevin_cfg=cfg_inf,
            alpha=ROOM_ALPHA,
            seed=seed,
        )
        ok = (
            ev.eu_auroc >= 0.90
            and ev.eu_auprc >= 0.85
            and ev.au_auroc >= 0.75
            and ev.au_auprc >= 0.55
        )
        wins += ok
        details.append(
            f"s{seed}: eu {ev.eu_auroc:.3f}/{ev.eu_auprc:.3f} "
            f"au {ev.au_auroc:.3f}/{ev.au_auprc:.3f}{'+' if ok else '-'}"
        )
    elapsed = sum(sec for _, _, sec in room_models) + (time.perf_counter() - t0)
    ok = wins >= 2 and elapsed < 600.0
    announce(
        capsys,
        f"[C5] room uncertainty maps: {'PASS' if ok else 'FAIL'} "
        f"({wins}/3 seeds clear the bars, {elapsed:.0f}s; {'; '.join(details)})",
    )
    assert wins >= 2
    assert elapsed < 600.0


def test_c06_field_emptiness_matches_bin_oracle(binref_model, capsys):
    m, ds = binref_model.model, binref_model.dataset
    grid = binref.build(ds, 100)
    agree = 0
    xs = np.linspace(-1.0, 1.0, 50)
    for i, x in enumerate(xs):
        bin_empty = len(binref.query(grid, [x], [])) == 0
        r = probe(m, x, seed=rules.derive_seed(13, 4000 + i))
        agree += (r.valid_count == 0) == bin_empty
    rate = agree / len(xs)
    ok = rate >= 0.90
    announce(
        capsys,
        f"[C6] valid-set emptiness vs b=100 bin oracle: "
        f"{'PASS' if ok else 'FAIL'} (agreement {agree}/50 = {rate:.0%})",
    )
    assert rate >= 0.90


def brute_force_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_c07_metric_oracles(capsys):
    rng = np.random.default_rng(77)
    exact = 0
    for k in range(100):
        n = int(rng.integers(2, 51))
        labels = np.zeros(n, dtype=int)
        labels[: max(1, int(rng.integers(1, n)))] = 1
        rng.shuffle(labels)
        scores = rng.uniform(0.0, 1.0, n)
        if k % 2 == 0:
            scores = np.round(scores, 1)  # force tie groups half the time
        exact += metrics.auroc(scores, labels) == brute_force_auroc(scores, labels)

    hand = (
        metrics.auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        and metrics.auprc([0.9, 0.8, 0.7, 0.6, 0.05], [0, 0, 0, 0, 1]) == 1.0 / 5.0
        and metrics.auprc([0.9, 0.8, 0.7], [1, 0, 1]) == 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    )
    ok = exact == 100 and hand
    announce(
        capsys,
        f"[C7] ranking-metric oracles: {'PASS' if ok else 'FAIL'} "
        f"({exact}/100 brute-force matches exact, hand auprc {'ok' if hand else 'bad'})",
    )
    assert exact == 100
    assert hand


def test_c08_kde_oracles(capsys):
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(8, 201))
        d = int(rng.integers(1, 4))
        points = rng.normal(0.0, 1.0, size=(n, d))
        stats = kde.fit(points, seed=k)
        q = rng.normal(0.0, 1.0, d)
        impl = kde.density(stats, q)
        diffs = stats.reference_points - q
        oracle = float(
            np.mean(np.exp(-np.sum(diffs * diffs, axis=1) / (2.0 * stats.bandwidth**2)))
        )
        worst = max(worst, abs(impl - oracle) / max(abs(impl), abs(oracle), 1e-300))

    points = rng.normal(0.0, 1.0, size=(500, 2))
    stats = kde.fit(points, seed=7)
    queries = np.concatenate(
        [rng.normal(0.0, 1.0, size=(50, 2)), rng.uniform(2.0, 6.0, size=(50, 2))]
    )
    dens = np.array([kde.density(stats, q) for q in queries])
    eus = np.array([kde.base_eu(stats, q) for q in queries])
    order = np.argsort(dens)
    monotone = bool(np.all(np.diff(eus[order]) <= 0.0))
    ok = worst <= 1e-12 and monotone
    announce(
        capsys,
        f"[C8] density direct-sum oracle and rarity monotonicity: "
        f"{'PASS' if ok else 'FAIL'} (worst rel err {worst:.2e}, "
        f"monotone {monotone})",
    )
    assert worst <= 1e-12
    assert monotone


def test_c09_cli_train_and_eval_are_deterministic(tmp_path, capsys):
    walk = tmp_path / "walk.csv"
    assert cli_run(["gen", "room", "--out", str(walk), "--steps", "300", "--seed", "5"]) == 0
    train_args = [
        "train", "--data", str(walk),
        "--epochs", "3", "--hidden", "8", "--positive-batch", "32",
        "--negative-batch", "8", "--langevin-steps", "2", "--seed", "5",
    ]
    for name in ("a.json", "b.json"):
        assert cli_run(train_args + ["--out", str(tmp_path / name)]) == 0
    train_same = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    loss_same = (
        (tmp_path / "a.json.loss.csv").read_bytes()
        == (tmp_path / "b.json.loss.csv").read_bytes()
    )

    eval_args = [
        "eval", "--model", str(tmp_path / "a.json"),
        "--grid", "5", "--samples", "16", "--steps", "5", "--seed", "7",
    ]
    for name in ("ea.csv", "eb.csv"):
        assert cli_run(eval_args + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()  # drop the JSON rows the eval command prints
    eval_same = (tmp_path / "ea.csv").read_bytes() == (tmp_path / "eb.csv").read_bytes()
    probes_same = (
        (tmp_path / "ea.csv.probes.csv").read_bytes()
        == (tmp_path / "eb.csv.probes.csv").read_bytes()
    )
    ok = train_same and loss_same and eval_same and probes_same
    announce(
        capsys,
        f"[C9] train/eval byte-level determinism: {'PASS' if ok else 'FAIL'} "
        f"(model {train_same}, loss {loss_same}, metrics {eval_same}, "
        f"probes {probes_same})",
    )
    assert ok


def test_c10_bench_times_grow_with_resolution_and_chain_length(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli_run(
        [
            "bench", "--out", str(out),
            "--b-values", "32,512,2048", "--l-values", "5,20,80",
            "--reps", "5", "--bin-queries", "128",
            "--samples", "64", "--dataset-size", "256", "--seed", "3",
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    bi, li = header.index("b"), header.index("L")
    ci, ni = header.index("cdrm_ns"), header.index("bin_ns")
    bin_ns, cdrm_ns = {}, {}
    for line in lines[1:]:
        row = line.split(",")
        bin_ns[int(row[bi])] = float(row[ni])
        cdrm_ns[int(row[li])] = float(row[ci])
    bs, ls = sorted(bin_ns), sorted(cdrm_ns)
    bin_mono = all(bin_ns[a] <= bin_ns[b] for a, b in zip(bs, bs[1:]))
    cdrm_mono = all(cdrm_ns[a] <= cdrm_ns[b] for a, b in zip(ls, ls[1:]))
    ok = bin_mono and cdrm_mono
    announce(
        capsys,
        f"[C10] bench wall-time direction: {'PASS' if ok else 'FAIL'} "
        f"(bin µs {'→'.join(f'{bin_ns[b]/1e3:.1f}' for b in bs)}; "
        f"infer ms {'→'.join(f'{cdrm_ns[l]/1e6:.1f}' for l in ls)})",
    )
    assert bin_mono
    assert cdrm_mono
