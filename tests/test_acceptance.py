"""Acceptance gate: one printed PASS/FAIL line per criterion.

Criteria tied to benchmark CSVs that cannot ship with the repository skip
with a provisioning message (see data/README.md); generated substitutes
carry the always-runnable assertions and are labelled as such.

Swept runs-per-setting is reduced from the reporting default (100) to a
handful where only a max statistic is asserted: DBSCAN/ISDBSCAN seed
variance only moves border assignments (their reported std dev is <= 0.02),
so the max over the grid stabilizes with few seeds while keeping the gate
inside its runtime budget.
"""

import numpy as np
import pytest

from conftest import BENCHMARK_FILES, load_benchmark
from oracles import ari_pairs_oracle, dbcv_oracle, full_sort_knn_oracle
from rnncluster import (
    DbscanParams,
    DbscrnParams,
    IsdbscanParams,
    KmeansParams,
    NOISE,
    SweepSpec,
    adjusted_rand_index,
    bench,
    best_ari_summary,
    build_index,
    dbcv,
    dbcv_selection_summary,
    dbscan,
    dbscrn,
    isdbscan,
    make_blobs,
    make_spirals,
    make_two_moons,
    pairwise_distance_extrema,
    range_standardize,
    run_sweep,
    timing_summary,
)
from rnncluster.kmeans import lloyd


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def fine_eps_spec(dataset, runs: int = 2) -> SweepSpec:
    """DBSCAN spec with a fine epsilon grid over the low-distance band.

    The default 0.1 step (squared units) provably skips the feasible
    epsilon band on spiral/moon geometries (point spacing^2 ~1e-3 versus a
    first step of ~0.1); the harness exposes the step precisely for this.
    """
    x, _ = range_standardize(dataset.matrix)
    lo, _ = pairwise_distance_extrema(x)
    return SweepSpec(
        algorithm="dbscan", runs_per_setting=runs, eps_step=0.002, eps_range=(lo, 0.05)
    )


@pytest.fixture(scope="module")
def two_moons():
    return make_two_moons(n=372, density_ratio=3.0, seed=0)


@pytest.fixture(scope="module")
def gen_spirals():
    return make_spirals(n=200, seed=0)


@pytest.fixture(scope="module")
def sweep_cache():
    cache: dict = {}

    def get(dataset, spec: SweepSpec):
        key = (dataset.name, spec)
        if key not in cache:
            cache[key] = run_sweep(dataset, spec)
        return cache[key]

    return get


# --- criterion 1: best-possible ARI reproduction (+/- 0.03) -----------------

C1_ROWS = [
    ("dbscrn", "aggregation", 0.99),
    ("dbscrn", "compound", 0.96),
    ("dbscrn", "pathbased", 0.92),
    ("dbscrn", "spiral", 1.00),
    ("dbscrn", "flame", 0.93),
    ("dbscrn", "r15", 0.99),
    ("dbscrn", "iris", 0.45),
    ("dbscan", "spiral", 1.00),
    ("dbscan", "r15", 0.99),
    ("dbscan", "flame", 0.96),
    ("isdbscan", "compound", 0.91),
]


@pytest.mark.parametrize("algo,name,expected", C1_ROWS, ids=lambda v: str(v))
def test_criterion_1_best_ari(algo, name, expected, sweep_cache):
    dataset = load_benchmark(name)
    if algo == "dbscan":
        # spiral arms live below the default grid's first 0.1 step (squared
        # units), so that row uses the documented finer-step affordance
        spec = fine_eps_spec(dataset, runs=3) if name == "spiral" else SweepSpec(
            algorithm="dbscan", runs_per_setting=3
        )
    elif algo == "isdbscan":
        spec = SweepSpec(algorithm="isdbscan", runs_per_setting=3)
    else:
        spec = SweepSpec(algorithm="dbscrn")
    result = sweep_cache(dataset, spec)
    reached = best_ari_summary(result)["max"]
    check(
        "criterion-1",
        abs(reached - expected) <= 0.03,
        f"{algo} on {name}: swept max ARI {reached:.4f} vs {expected:.2f} +/- 0.03",
    )


def test_criterion_1_toy_equivalent_isdbscan(two_moons, sweep_cache):
    result = sweep_cache(two_moons, SweepSpec(algorithm="isdbscan", runs_per_setting=3))
    reached = best_ari_summary(result)["max"]
    check(
        "criterion-1",
        abs(reached - 1.00) <= 0.03,
        f"isdbscan on generated Toy substitute: swept max ARI {reached:.4f} vs 1.00",
    )


def test_criterion_1_spiral_substitutes(gen_spirals, sweep_cache):
    dbscrn_max = best_ari_summary(sweep_cache(gen_spirals, SweepSpec(algorithm="dbscrn")))["max"]
    dbscan_max = best_ari_summary(sweep_cache(gen_spirals, fine_eps_spec(gen_spirals)))["max"]
    check(
        "criterion-1",
        dbscrn_max == 1.0 and dbscan_max == 1.0,
        "generated Spiral substitute: swept max ARI "
        f"dbscrn {dbscrn_max:.4f}, dbscan {dbscan_max:.4f} (fine eps grid), target 1.00",
    )


# --- criterion 2: DBCV-selected ARI ------------------------------------------


def _selected_max(result) -> float:
    return dbcv_selection_summary(result)["max"]


def test_criterion_2_selection_ordering_iris(iris, sweep_cache):
    ours = _selected_max(sweep_cache(iris, SweepSpec(algorithm="dbscrn")))
    baseline = _selected_max(sweep_cache(iris, SweepSpec(algorithm="dbscan", runs_per_setting=3)))
    check(
        "criterion-2",
        ours >= baseline - 0.03,
        f"iris: DBCV-selected ARI dbscrn {ours:.4f} >= dbscan {baseline:.4f} - 0.03",
    )


def test_criterion_2_selection_ordering_two_moons(two_moons, sweep_cache):
    ours = _selected_max(sweep_cache(two_moons, SweepSpec(algorithm="dbscrn")))
    baseline = _selected_max(sweep_cache(two_moons, fine_eps_spec(two_moons)))
    check(
        "criterion-2",
        ours >= baseline - 0.03,
        f"two_moons: DBCV-selected ARI dbscrn {ours:.4f} >= dbscan {baseline:.4f} - 0.03",
    )


def test_criterion_2_selection_ordering_spirals(gen_spirals, sweep_cache):
    ours = _selected_max(sweep_cache(gen_spirals, SweepSpec(algorithm="dbscrn")))
    baseline = _selected_max(sweep_cache(gen_spirals, fine_eps_spec(gen_spirals)))
    check(
        "criterion-2",
        ours >= baseline - 0.03,
        f"spirals: DBCV-selected ARI dbscrn {ours:.4f} >= dbscan {baseline:.4f} - 0.03",
    )


@pytest.mark.parametrize("name", ["aggregation", "compound", "pathbased", "spiral"])
def test_criterion_2_selection_ordering_gated(name, sweep_cache):
    dataset = load_benchmark(name)
    ours = _selected_max(sweep_cache(dataset, SweepSpec(algorithm="dbscrn")))
    dbscan_spec = fine_eps_spec(dataset, runs=3) if name == "spiral" else SweepSpec(
        algorithm="dbscan", runs_per_setting=3
    )
    baseline = _selected_max(sweep_cache(dataset, dbscan_spec))
    check(
        "criterion-2",
        ours >= baseline - 0.03,
        f"{name}: DBCV-selected ARI dbscrn {ours:.4f} >= dbscan {baseline:.4f} - 0.03",
    )


C2_TABLE_ROWS = [
    ("aggregation", 0.99),
    ("compound", 0.96),
    ("pathbased", 0.92),
    ("spiral", 1.00),
]


@pytest.mark.parametrize("name,expected", C2_TABLE_ROWS, ids=lambda v: str(v))
def test_criterion_2_dbscrn_selected_values(name, expected, sweep_cache):
    dataset = load_benchmark(name)
    selected = _selected_max(sweep_cache(dataset, SweepSpec(algorithm="dbscrn")))
    check(
        "criterion-2",
        abs(selected - expected) <= 0.05,
        f"dbscrn on {name}: DBCV-selected ARI {selected:.4f} vs {expected:.2f} +/- 0.05",
    )


# --- criterion 3: k-means baseline -------------------------------------------


def test_criterion_3_kmeans_iris(iris):
    x, _ = range_standardize(iris.matrix)
    rng = np.random.default_rng(KmeansParams(k_clusters=3).seed)
    aris = [
        adjusted_rand_index(lloyd(x, 3, rng)[0], iris.true_labels) for _ in range(100)
    ]
    reached = max(aris)
    check(
        "criterion-3",
        abs(reached - 0.71) <= 0.05,
        f"kmeans on iris (K=3, 100 restarts): max ARI {reached:.4f} vs 0.71 +/- 0.05",
    )


def test_criterion_3_kmeans_spiral():
    # strongly intertwined substitute; the real file supersedes it if present
    dataset = make_spirals(n=312, turns=1.5, seed=0)
    x, _ = range_standardize(dataset.matrix)
    rng = np.random.default_rng(0)
    reached = max(
        adjusted_rand_index(lloyd(x, 2, rng)[0], dataset.true_labels) for _ in range(100)
    )
    check(
        "criterion-3",
        reached <= 0.10,
        f"kmeans on generated Spiral substitute: max ARI {reached:.4f} <= 0.10",
    )


def test_criterion_3_kmeans_spiral_real_file():
    dataset = load_benchmark("spiral")
    x, _ = range_standardize(dataset.matrix)
    k = int(np.unique(dataset.true_labels).size)
    rng = np.random.default_rng(0)
    reached = max(
        adjusted_rand_index(lloyd(x, k, rng)[0], dataset.true_labels) for _ in range(100)
    )
    check("criterion-3", reached <= 0.10, f"kmeans on spiral: max ARI {reached:.4f} <= 0.10")


# --- criterion 4: timing ordering --------------------------------------------


def test_criterion_4_timing_ordering():
    dataset = make_blobs(n_centers=7, points_per_center=113, spread=0.08, seed=5)
    x, _ = range_standardize(dataset.matrix)
    probe = build_index(x, 10)
    eps = float(np.median(probe.knn_d2[:, 9]))  # radius comparable to k=10
    runs = 25
    t_dbscan = timing_summary(bench(dataset, DbscanParams(eps, 10), runs))
    t_dbscrn = timing_summary(bench(dataset, DbscrnParams(k=10), runs))
    t_isdb = timing_summary(bench(dataset, IsdbscanParams(k=10), runs))
    ordering = t_dbscan["mean"] < t_dbscrn["mean"] < t_isdb["mean"]
    ratio = t_isdb["mean"] / t_dbscrn["mean"]
    check(
        "criterion-4",
        ordering and ratio >= 2.0,
        f"n={dataset.n}: mean seconds dbscan {t_dbscan['mean']:.4f}, "
        f"dbscrn {t_dbscrn['mean']:.4f}, isdbscan {t_isdb['mean']:.4f}; "
        f"ordering={'ok' if ordering else 'violated'}, "
        f"isdbscan/dbscrn ratio {ratio:.2f} (>= 2.0 required)",
    )


# --- criterion 5: property suites --------------------------------------------


def test_criterion_5_duality_and_backend_equivalence():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(5, 301))
        m = int(rng.integers(1, 11))
        x = rng.normal(size=(n, m)) * rng.uniform(0.01, 10.0)
        k_max = min(int(rng.integers(1, 11)), n - 1)
        brute = build_index(x, k_max, backend="brute")
        spatial = build_index(x, k_max, backend="spatial")
        for idx, d2 in ((spatial.knn_idx, spatial.knn_d2), full_sort_knn_oracle(x, k_max)):
            assert np.array_equal(brute.knn_idx, idx)
            assert np.array_equal(brute.knn_d2, d2)
        for k in {1, k_max}:
            forward = [set(brute.knn(i, k).tolist()) for i in range(n)]
            for i in range(n):
                assert set(brute.rnn(i, k).tolist()) == {
                    j for j in range(n) if i in forward[j]
                }
    check("criterion-5", True, "kNN/RNN duality and brute/spatial/full-sort equality on 50 datasets")


def test_criterion_5_ari_oracle_agreement():
    rng = np.random.default_rng(56)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        a = rng.integers(0, 7, size=n)
        b = rng.integers(0, 5, size=n)
        worst = max(worst, abs(adjusted_rand_index(a, b) - ari_pairs_oracle(a.tolist(), b.tolist())))
    check("criterion-5", worst <= 1e-12, f"ARI pair-counting agreement, worst |delta| {worst:.2e}")


def test_criterion_5_dbscrn_determinism(iris, two_moons, gen_spirals):
    datasets = {"iris": iris, "two_moons": two_moons, "spirals": gen_spirals}
    for name in BENCHMARK_FILES:
        if name not in datasets:
            try:
                datasets[name] = load_benchmark(name)
            except pytest.skip.Exception:
                continue
    for name, dataset in datasets.items():
        x, _ = range_standardize(dataset.matrix)
        index = build_index(x, k_max=10)
        reference = dbscrn(x, index, DbscrnParams(k=7)).labels
        for _ in range(10):
            repeat = dbscrn(x, build_index(x, k_max=10), DbscrnParams(k=7)).labels
            assert np.array_equal(reference, repeat)
    check(
        "criterion-5",
        True,
        f"dbscrn 10x bit-identical on: {', '.join(sorted(datasets))}",
    )


def test_criterion_5_isdbscan_invariants():
    rng = np.random.default_rng(57)
    for trial in range(50):
        n = int(rng.integers(3, 80))
        x = rng.normal(size=(n, int(rng.integers(1, 5))))
        k = int(rng.integers(3, 14))  # regularly exceeds n: the all-noise edge
        index = build_index(x, k_max=min(k, n - 1))
        clustering = isdbscan(x, index, IsdbscanParams(k=k, seed=trial))
        assert clustering.labels.shape == (n,)
        if k >= n:
            assert clustering.n_noise == n
        for cid in range(clustering.n_clusters):
            assert int((clustering.labels == cid).sum()) > k
    check("criterion-5", True, "isdbscan termination/partition invariants on 50 datasets")


def test_criterion_5_dbcv_oracle_agreement():
    rng = np.random.default_rng(58)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 101))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        if rng.random() < 0.5:
            labels[rng.random(n) < 0.1] = NOISE
        worst = max(worst, abs(dbcv(x, labels).overall - dbcv_oracle(x, labels)))
    check("criterion-5", worst <= 1e-9, f"DBCV oracle agreement, worst |delta| {worst:.2e}")


def test_criterion_5_dbscan_hand_case():
    line = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])
    clustering = dbscan(line, DbscanParams(epsilon=1.0, min_pts=2), seed=0)
    ok = clustering.labels.tolist() == [0, 0, 0, NOISE, NOISE]
    check("criterion-5", ok, f"dbscan 1-D hand case labels {clustering.labels.tolist()}")


# --- criterion 6: Mixed/Toy substitutes --------------------------------------


def test_criterion_6_two_moons_density_ratio(two_moons, sweep_cache):
    ours = best_ari_summary(sweep_cache(two_moons, SweepSpec(algorithm="dbscrn")))["max"]
    isdb = best_ari_summary(
        sweep_cache(two_moons, SweepSpec(algorithm="isdbscan", runs_per_setting=3))
    )["max"]
    baseline = best_ari_summary(sweep_cache(two_moons, fine_eps_spec(two_moons)))["max"]
    check(
        "criterion-6",
        ours == 1.0 and isdb == 1.0 and baseline <= isdb,
        f"two moons 3:1 density: best ARI dbscrn {ours:.4f} (=1.00), "
        f"isdbscan {isdb:.4f} (=1.00), dbscan {baseline:.4f} <= isdbscan",
    )
