import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rnncluster.data
from oracles import (
    ari_pairs_oracle,
    contingency_table,
    dbcv_oracle,
    dbcv_report_oracle,
    pairwise_squared_distances,
    prim_mst_oracle,
    spread_noise_ari_oracle,
    unique_scan_clusters_oracle,
    validity_loop_oracle,
)
from rnncluster import (
    DbscrnParams,
    IsdbscanParams,
    adjusted_rand_index,
    build_index,
    canonicalize_labels,
    dbcv,
    dbscrn,
    isdbscan,
    make_blobs,
    make_two_moons,
    range_standardize,
    select_best,
)
import rnncluster.validation as validation_module
from rnncluster.data import as_labels
from rnncluster.validation import _scored_clusters, _spanning_trees, _validity, fill_cluster_terms


def test_ari_trivial_cases():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0  # permutation
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)


labelings = st.lists(st.integers(0, 4), min_size=2, max_size=40)


@given(labelings, st.permutations(range(5)))
@settings(max_examples=80, deadline=None)
def test_ari_invariant_under_relabeling(labels, perm):
    truth = [(i * 7) % 3 for i in range(len(labels))]
    renamed = [perm[l] for l in labels]
    assert adjusted_rand_index(labels, truth) == pytest.approx(
        adjusted_rand_index(renamed, truth), abs=1e-12
    )


def test_ari_self_agreement_is_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = rng.integers(0, 5, size=30)
        assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        a = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(
            ari_pairs_oracle(a.tolist(), b.tolist()), abs=1e-12
        )


def test_ari_noise_policies():
    pred = np.array([0, 0, 1, 1, -1, -1])
    truth = np.array([0, 0, 1, 1, 2, 2])
    # each noise entity is its own cluster
    manual = np.array([0, 0, 1, 1, 2, 3])
    assert adjusted_rand_index(pred, truth) == adjusted_rand_index(manual, truth)


@st.composite
def ari_inputs(draw):
    n = draw(st.integers(1, 60))
    # -3 and -2 are clusters, and so are ids near +-2**62; many classes
    # (far truth ids) count the cells by a sort, few by a bincount
    pred_ids = st.integers(-3, 6) if draw(st.booleans()) else st.sampled_from(
        [-2**62, -7, -2, -1, 0, 5, 2**61, 2**62 - 1, 2**62])
    pred = draw(st.lists(pred_ids, min_size=n, max_size=n))
    truth_ids = st.integers(-2**62, 2**62) if draw(st.booleans()) else st.integers(-2, 6)
    return pred, draw(st.lists(truth_ids, min_size=n, max_size=n))


@given(ari_inputs())
@settings(max_examples=300, deadline=None)
def test_ari_matches_the_spread_noise_table_bit_for_bit(inputs):
    pred, truth = inputs
    got, want = adjusted_rand_index(pred, truth), spread_noise_ari_oracle(pred, truth)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)  # sign of zero too


_PAIRS = np.arange(24)
# name -> (pred, truth, whether the truth's ids and the clustered ids are
# counted as they are); the rest go through np.unique
ARI_PATHS = {
    "dense ids": (canonicalize_labels(_PAIRS // 5 - 1), _PAIRS % 3, (True, True)),
    "dense ids in an array": (np.where(_PAIRS % 4 == 0, -1, _PAIRS % 3), _PAIRS // 6, (True, True)),
    "ids with gaps": (_PAIRS % 3 * 7, _PAIRS // 6 * 2 + 1, (False, False)),
    "ids near 2**62": (2**62 - _PAIRS % 3, _PAIRS % 2 * 2**62 - 2**62, (False, False)),
    "ids above n": (_PAIRS % 2 + 23, _PAIRS % 2, (True, False)),
    "all noise": (np.full(24, -1), _PAIRS % 4, (True, True)),
    "one class": (_PAIRS // 8, np.zeros(24, dtype=int), (True, True)),
}


@pytest.mark.parametrize("name", sorted(ARI_PATHS))
def test_ari_counts_dense_ids_as_they_are(name, monkeypatch):
    pred, truth, dense = ARI_PATHS[name]
    taken = []

    def spy(ids):
        codes, sizes = dense_codes(ids)
        taken.append(codes is ids)
        return codes, sizes

    dense_codes = validation_module._dense_codes
    monkeypatch.setattr(validation_module, "_dense_codes", spy)
    got = adjusted_rand_index(pred, truth)
    assert tuple(taken) == dense
    # the pair count reads NOISE as one more id, so each noise entity gets its own
    labels = as_labels(pred).copy()
    noise = labels == -1
    labels[noise] = -2 - np.arange(noise.sum())
    assert got == pytest.approx(ari_pairs_oracle(labels.tolist(), np.asarray(truth).tolist()), abs=1e-12)
    assert np.float64(got).view(np.int64) == np.float64(spread_noise_ari_oracle(pred, truth)).view(np.int64)


def test_ari_of_n_clusters_by_n_classes_holds_no_n_by_n_cells():
    labels = np.arange(4000)
    tracemalloc.start()
    try:
        assert adjusted_rand_index(labels, labels[::-1]) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a bincount over every (cluster, class) cell would take 128 MB here
    assert peak < 2**20


def test_ari_keeps_no_cell_for_a_noise_entity():
    truth = np.arange(4000) % 2000
    tracemalloc.start()
    try:
        assert adjusted_rand_index(np.full(4000, -1), truth) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each noise entity once had its own row of a 4,000 x 2,000 int64 table: 183 MB
    assert peak < 2**20


def test_ari_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        adjusted_rand_index([0, 1], [0, 1, 2])


def test_contingency_table_counts():  # the oracle that spread_noise_ari_oracle reads
    table = contingency_table([0, 0, 1, 1], [0, 0, 1, 2])
    assert table.sum() == 4
    assert table.sum(axis=1).tolist() == [2, 2]
    assert table.sum(axis=0).tolist() == [2, 1, 1]


def test_dbcv_six_point_hand_case():
    x = np.array([[0.0], [1.0], [2.0], [100.0], [101.0], [102.0]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    report = dbcv(x, labels)
    # clusters: apts (4/3, 1, 4/3); MST edges both 4/3; no internal edge so
    # sparseness falls back to the max edge; separation via middle nodes = 100
    assert report.sparseness == pytest.approx([4 / 3, 4 / 3])
    assert report.separation == pytest.approx([100.0, 100.0])
    expected = (100 - 4 / 3) / 100
    assert report.overall == pytest.approx(expected)
    assert report.overall > 0.9
    assert report.overall == pytest.approx(dbcv_oracle(x, labels), abs=1e-12)


def test_dbcv_degenerate_inputs_score_zero():
    x = np.random.default_rng(0).normal(size=(10, 2))
    assert dbcv(x, np.zeros(10, dtype=int)).overall == 0.0  # K = 1
    labels = np.zeros(10, dtype=int)
    labels[9] = 1  # second cluster is a singleton
    assert dbcv(x, labels).overall == 0.0


def test_dbcv_separated_beats_shuffled():
    rng = np.random.default_rng(2)
    x = np.vstack(
        [rng.normal(0, 0.05, size=(25, 2)), rng.normal(0, 0.05, size=(25, 2)) + 4.0]
    )
    good = np.repeat([0, 1], 25)
    shuffled = good.copy()
    rng.shuffle(shuffled)
    assert dbcv(x, good).overall > 0
    assert dbcv(x, shuffled).overall < dbcv(x, good).overall


def test_dbcv_matches_direct_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(10, 101))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0)
        n_clusters = int(rng.integers(2, 5))
        labels = rng.integers(0, n_clusters, size=n)
        if rng.random() < 0.4:
            labels[rng.random(n) < 0.15] = -1  # sprinkle noise
        assert dbcv(x, labels).overall == pytest.approx(dbcv_oracle(x, labels), abs=1e-9)


@st.composite
def reachability_matrices(draw):
    """DBCV's mutual-reachability matrix of one cluster on a coarse integer grid.

    Few grid values and rows drawn from a small pool give many equal
    distances, equal core distances and duplicated rows (core distance 0).
    """
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 3))
    pool = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, draw(st.integers(1, 4)), size=(pool, m)).astype(np.float64)
    x = rows[rng.integers(0, pool, size=n)]
    dist = np.sqrt(pairwise_squared_distances(x))
    with np.errstate(divide="ignore", over="ignore"):  # the oracle's core distances
        inv = 1.0 / dist
        np.fill_diagonal(inv, 0.0)
        core = ((inv**m).sum(axis=1) / (n - 1)) ** (-1.0 / m)
    return np.maximum(dist, np.maximum(core[:, None], core[None, :]))


def _stack(matrices):
    """One slab as `_build_terms` lays it out: each matrix, infinite weights
    as they are, at 0..n - 1 of its slot, before the +inf padding."""
    width = max(w.shape[0] for w in matrices)
    slab = np.full((len(matrices), width, width), np.inf)
    for slot, w in zip(slab, matrices):
        slot[: w.shape[0], : w.shape[0]] = w
    return slab, [w.shape[0] for w in matrices]


def _assert_spanning_tree(edges, n):
    """Every node but the root joins once, each from a node already in the tree."""
    assert sorted(edges[:, 1].tolist()) == list(range(1, n))
    in_tree = {0}
    for parent, child in edges.tolist():
        assert parent in in_tree
        in_tree.add(child)


@given(st.lists(reachability_matrices(), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_prim_matches_the_loop_oracle_on_ties(matrices):
    # one lockstep loop over clusters of mixed sizes, in any order
    trees = _spanning_trees(*_stack(matrices))
    assert len(trees) == len(matrices)
    for weights, tree in zip(matrices, trees):
        for got, want in zip(tree, prim_mst_oracle(weights)):
            assert np.array_equal(got, want)


def test_prim_adds_every_node_once_at_infinite_reach():
    inf = np.inf
    cut_off = np.array([[inf, 1.0, inf], [1.0, inf, inf], [inf, inf, inf]])
    # the replaced loop adds the root again: edges [[0, 1], [0, 0]], degrees [3, 1, 0]
    old_edges, _, old_degrees = prim_mst_oracle(cut_off)
    assert old_edges.tolist() == [[0, 1], [0, 0]] and old_degrees.tolist() == [3, 1, 0]
    # two finite blocks, {0, 1} and {2, 3, 4}, at infinite reach from each other
    blocks = np.full((5, 5), inf)
    blocks[:2, :2] = [[0.0, 2.0], [2.0, 0.0]]
    blocks[2:, 2:] = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    (edges, edge_w, degrees), (block_edges, block_w, _) = _spanning_trees(
        *_stack([cut_off, blocks])
    )
    _assert_spanning_tree(edges, 3)
    _assert_spanning_tree(block_edges, 5)
    assert edges.tolist() == [[0, 1], [0, 2]]  # from the root to the lowest unreached node
    assert edge_w.tolist() == [1.0, inf]
    assert degrees.tolist() == [2, 1, 1]
    # node 2 joins from the root, and its row then gives 3 and 4 their parents
    assert block_edges.tolist() == [[0, 1], [0, 2], [2, 3], [3, 4]]
    assert block_w.tolist() == [2.0, inf, 1.0, 1.0]
    # a 1-D cluster of two blocks 1e160 apart: that distance's square
    # overflows, so reach and sparseness are infinite between the blocks
    x = np.array([[0.0], [1.0], [2.0], [1e160], [1e160 + 1e145], [5.0], [6.0]])
    labels = np.array([0, 0, 0, 0, 0, 1, 1])
    memo: dict = {}
    fill_cluster_terms(x, [labels], memo)
    core, sparseness, pool = memo[np.arange(5).tobytes()]
    assert np.isfinite(core).all() and sparseness == inf
    assert pool.tolist() == [0, 3]  # both blocks; [0] if nodes 3 and 4 never join


@st.composite
def split_cluster_inputs(draw):
    """2-5 clusters of 2-40 members on a coarse grid, some split in two.

    A split cluster's second sub-block sits 1e160 away on axis 0, so the
    distances between its sub-blocks overflow to inf inside the cluster.
    Clusters of different sizes share a stack, so every slot but the
    widest is padded. Returns the data, the labels, and for each split
    cluster its id and sub-block sizes.
    """
    sizes = draw(st.lists(st.integers(2, 40), min_size=2, max_size=5))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, draw(st.integers(1, 4)), size=(sum(sizes), m)).astype(np.float64)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    splits = []
    for c, size in enumerate(sizes):
        if draw(st.booleans()):
            near = draw(st.integers(1, size - 1))
            x[np.flatnonzero(labels == c)[near:], 0] += 1e160
            splits.append((c, near, size - near))
    return x, labels, splits


@given(split_cluster_inputs())
@settings(max_examples=150, deadline=None)
def test_infinite_reach_inside_padded_stacks(case):
    x, labels, splits = case
    memos = []
    for stack_bytes in (validation_module._STACK_BYTES, 0):  # in padded stacks, then alone
        trees = []

        def spy(slab, sizes, _real=_spanning_trees):
            got = _real(slab, sizes)
            trees.extend(zip(sizes, got))
            return got

        memo: dict = {}
        with mock.patch.object(validation_module, "_STACK_BYTES", stack_bytes), \
                mock.patch.object(validation_module, "_spanning_trees", spy):
            fill_cluster_terms(x, [labels], memo)
        assert len(trees) == len(memo) == labels.max() + 1
        for n, (edges, _, _) in trees:
            _assert_spanning_tree(edges, n)
        memos.append(_memo_bits(memo))
    assert memos[0] == memos[1]
    for c, near, far in splits:
        if near >= 2 and far >= 2:  # the tree crosses on an internal edge
            _, sparseness, _ = memo[np.flatnonzero(labels == c).tobytes()]
            assert sparseness == np.inf


def test_fill_charges_each_cluster_to_the_first_labeling_that_has_it(monkeypatch):
    x = np.vstack([np.arange(6.0)[:, None], np.arange(6.0)[:, None] + 20.0])
    a, b, c = [0] * 6, [1] * 6, [1, 1, 1, -1, -1, -1]
    labelings = [np.array(a + b), np.array(b + a),  # the same clusters, relabelled
                 np.array(a + [-1] * 6),  # one scored cluster: DBCV builds nothing
                 np.array(a + c)]
    memo: dict = {}
    # two new 6-member clusters, two labelings that build nothing, one new 3-member cluster
    assert fill_cluster_terms(x, labelings, memo).tolist() == [72, 0, 0, 9]
    assert sorted(memo) == sorted(np.arange(lo, hi).tobytes() for lo, hi in
                                  ((0, 6), (6, 12), (6, 9)))
    fresh = [dbcv(x, labels) for labels in labelings]
    built = []

    def counting_build(data, missing, cluster_terms, _original=validation_module._build_terms):
        built.extend(missing)
        return _original(data, missing, cluster_terms)

    monkeypatch.setattr(validation_module, "_build_terms", counting_build)
    for labels, want in zip(labelings, fresh):
        assert_same_report(dbcv(x, labels, cluster_terms=memo),
                           [getattr(want, name) for name in _REPORT_FIELDS])
    assert built == []  # the filled memo held every cluster the reports read


_REPORT_FIELDS = ("cluster_ids", "sparseness", "separation", "validity", "overall")


def _report_bits(fields):
    """Each report field as int64 bits, so equal means bit-identical."""
    return [np.atleast_1d(np.asarray(f)).view(np.int64).tolist() for f in fields]


def assert_same_report(report, expected):
    got = [getattr(report, name) for name in _REPORT_FIELDS]
    assert _report_bits(got) == _report_bits(expected)


@st.composite
def dbcv_inputs(draw):
    """Data and labels with noise, singletons, duplicate rows and many small clusters.

    A coarse integer grid gives duplicate rows (core distance 0) and exact
    ties; up to 25 label ids on at most 80 entities give clusters of one
    or two members, where no MST node is internal.
    """
    n = draw(st.integers(2, 80))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, draw(st.integers(1, 5)), size=(n, m)).astype(np.float64)
    else:
        x = rng.normal(size=(n, m))
    labels = rng.integers(-1, draw(st.integers(1, 25)), size=n)
    return x, labels


@given(dbcv_inputs())
@settings(max_examples=150, deadline=None)
def test_dbcv_report_matches_the_replaced_implementation(case):
    x, labels = case
    assert_same_report(dbcv(x, labels), dbcv_report_oracle(x, labels))


# a sparseness or a separation: +0.0 to +inf, the loop's branches and the float extremes
dbcv_terms = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, np.finfo(float).max, np.inf]),
                       st.floats(0.0, allow_nan=False))


@given(st.lists(st.one_of(st.tuples(dbcv_terms, dbcv_terms), dbcv_terms.map(lambda t: (t, t))),
                max_size=30))
@settings(max_examples=300, deadline=None)
def test_validity_matches_the_replaced_loop_bit_for_bit(pairs):
    # always inf/inf, inf/finite, finite/inf, 0/0 and equal finite terms; no warning escapes
    pairs = [(np.inf, np.inf), (np.inf, 2.5), (2.5, np.inf), (0.0, 0.0), (3.0, 3.0)] + pairs
    separation, sparseness = (np.array(column) for column in zip(*pairs))
    got = _validity(separation, sparseness)
    assert got.dtype == np.float64
    assert got.view(np.int64).tolist() == validity_loop_oracle(separation, sparseness).view(np.int64).tolist()


@st.composite
def blocked_dbcv_inputs(draw):
    """A few clusters that span one, two or several kernel blocks of a drawn
    height, each built alone or in lockstep stacks.

    Duplicate rows and an integer grid give core distances of 0 and tied
    reaches. One cluster may sit 1e160 away along the first axis, so every
    distance from it to another cluster overflows to inf.
    """
    n = draw(st.integers(2, 90))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(2 * x)
    if draw(st.booleans()):
        x[n // 2 :] = x[: n - n // 2]
    labels = rng.integers(-1, draw(st.integers(1, 5)), size=n)
    if draw(st.booleans()):
        far = labels == labels.max()
        x[far, 0] = 1e160
    return x, labels, draw(st.integers(2, 9)), draw(st.sampled_from([0, validation_module._STACK_BYTES]))


@given(blocked_dbcv_inputs())
@settings(max_examples=150, deadline=None)
def test_dbcv_report_matches_the_replaced_implementation_across_blocks(case):
    x, labels, block_rows, stack_bytes = case
    want = dbcv_report_oracle(x, labels)
    # rows mirrored into later blocks, tile by tile; a budget of 0 builds every cluster alone
    with mock.patch.object(rnncluster.data, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(validation_module, "_STACK_BYTES", stack_bytes):
        assert_same_report(dbcv(x, labels), want)


def _memo_bits(memo):
    """Each memo entry's core distances and sparseness as int64 bits, and its pool."""
    return {key: (core.view(np.int64).tolist(), np.float64(sparseness).view(np.int64), pool.tolist())
            for key, (core, sparseness, pool) in memo.items()}


def _spying_on_the_pair_table(calls):
    """Patch `_pair_table` to append each call's (cells, whether it built the table)."""

    def spy(data, cells, _real=validation_module._pair_table):
        table = _real(data, cells)
        calls.append((cells, table is not None))
        return table

    return mock.patch.object(validation_module, "_pair_table", spy)


def _overlapping_labelings(n):
    """One cluster of n - 2 members and one of 2, three ways: for n >= 5 six
    distinct clusters of more than n^2 cells, so a fill gathers from the table."""
    return [np.isin(np.arange(n), [j, j + 1]).astype(np.int64) for j in range(3)]


def _assert_the_pair_table_changes_no_bit(x, labels):
    """Fill a memo for `labels` and three overlapping labelings with the pair
    table and without it: every entry and every report is bit-identical."""
    n = labels.size
    labelings = [labels] + _overlapping_labelings(n)
    calls = []
    gathered, computed = {}, {}
    with _spying_on_the_pair_table(calls):
        fill_cluster_terms(x, labelings, gathered)
        with mock.patch.object(rnncluster.data, "_BLOCK_BYTES", 16 * n * n - 1):  # off
            fill_cluster_terms(x, labelings, computed)
    assert [built for _, built in calls] == [True, False]
    assert _memo_bits(gathered) == _memo_bits(computed)
    for labeling in labelings:
        fresh = dbcv(x, labeling)  # a single labeling never builds the table
        assert_same_report(dbcv(x, labeling, cluster_terms=gathered),
                           [getattr(fresh, name) for name in _REPORT_FIELDS])
    assert_same_report(dbcv(x, labels, cluster_terms=gathered), dbcv_report_oracle(x, labels))


@given(dbcv_inputs())
@settings(max_examples=100, deadline=None)
def test_the_pair_table_changes_no_bit(case):
    x, labels = case
    assume(labels.size >= 5)
    _assert_the_pair_table_changes_no_bit(x, labels)


@given(blocked_dbcv_inputs())
@settings(max_examples=100, deadline=None)
def test_the_pair_table_changes_no_bit_across_blocks(case):
    x, labels, block_rows, stack_bytes = case
    assume(labels.size >= 5)
    # gathers that span several row blocks, into slots of lockstep stacks or alone;
    # duplicates, grid ties and distances that overflow to inf
    with mock.patch.object(rnncluster.data, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(validation_module, "_STACK_BYTES", stack_bytes):
        _assert_the_pair_table_changes_no_bit(x, labels)


def test_the_pair_table_is_built_once_per_fill_and_only_when_it_pays():
    moons = make_two_moons(n=372, density_ratio=3.0, seed=0)
    x, _ = range_standardize(moons.matrix)
    index = build_index(x, k_max=12)
    labelings = [isdbscan(x, index, IsdbscanParams(k=k, seed=seed)).labels
                 for k in (6, 9, 12) for seed in range(3)]
    calls = []
    with _spying_on_the_pair_table(calls):
        fill_cluster_terms(x, labelings, {})
        dbcv(x, labelings[0])
        fill_cluster_terms(np.vstack([x, x]), [np.tile(labels, 2) for labels in labelings], {})
    # the sweep's fill: its clusters hold more cells than the 372^2 table
    assert calls[0][0] > 372**2 and calls[0][1]
    # one labeling's clusters are disjoint, so they never hold more
    assert calls[1][0] <= 372**2 and not calls[1][1]
    # every cluster twice as large on the data twice over: 4x the cells, but
    # 16 * 744^2 bytes exceed the kernel's block budget
    assert calls[2][0] == 4 * calls[0][0] and not calls[2][1]


def test_the_pair_table_stays_within_its_budget():
    n = 500
    assert 16 * n * n <= rnncluster.data._BLOCK_BYTES  # the largest tables the budget allows
    x = np.random.default_rng(0).normal(size=(n, 2))
    # three clusters of 498 members, each a stack of one, and three of two
    calls = []
    memo: dict = {}
    with _spying_on_the_pair_table(calls):
        tracemalloc.start()
        try:
            fill_cluster_terms(x, _overlapping_labelings(n), memo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert [built for _, built in calls] == [True] and len(memo) == 6
    # the two tables, one stack's buffer, and a gathered row block with its indices
    assert peak < validation_module._STACK_BYTES + rnncluster.data._BLOCK_BYTES + 2**20


@pytest.mark.parametrize("block_rows", [1, 5, 9, 128])
def test_separations_of_many_small_pools_across_row_blocks(monkeypatch, block_rows):
    rng = np.random.default_rng(7)
    sizes = rng.integers(2, 7, size=40)
    labels = np.repeat(np.arange(40), sizes)
    rng.shuffle(labels)  # each pool's entities are scattered over the data
    labels[rng.random(labels.size) < 0.1] = -1
    x = np.round(3 * rng.normal(size=(labels.size, 2)))  # a grid: duplicates and tied reaches
    want = dbcv_report_oracle(x, labels)
    # 40 pools of 1 to 6 points: a row block spans several pools, and a pool
    # may span two blocks
    monkeypatch.setattr(rnncluster.data, "_BLOCK_ROWS", block_rows)
    assert_same_report(dbcv(x, labels), want)


def test_the_separation_pass_keeps_its_blocks_within_the_kernel_budget():
    rng = np.random.default_rng(0)
    n = 4000
    points, core = rng.normal(size=(n, 2)), rng.random(n)
    cuts = np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), 999, replace=False)), [n]])
    tracemalloc.start()
    try:
        validation_module._separations(points, core, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's kernel takes m floats per pair within the budget, while the
    # previous block is still held; blocks of 128 rows of 4,000 columns
    # would peak at 12 MiB
    assert peak < 2 * rnncluster.data._BLOCK_BYTES


def test_a_cluster_built_alone_equals_it_built_in_a_stack():
    rng = np.random.default_rng(4)
    sizes = (200, 90, 40, 7)  # 200 members span two kernel blocks
    # the four padded slots and the loop's state fit one stack
    assert len(sizes) * 8 * 200 * (200 + 5) <= validation_module._STACK_BYTES
    x = np.round(4 * rng.normal(size=(sum(sizes), 2)))  # a grid: tied reaches everywhere
    x[:60] = x[60:120]  # and duplicates in the largest cluster
    labels = np.repeat(np.arange(len(sizes)), sizes)
    stacked: dict = {}
    fill_cluster_terms(x, [labels], stacked)
    alone: dict = {}
    with mock.patch.object(validation_module, "_STACK_BYTES", 0):
        fill_cluster_terms(x, [labels], alone)
    assert stacked.keys() == alone.keys() and len(alone) == len(sizes)
    for key, (core, sparseness, pool) in stacked.items():
        alone_core, alone_sparseness, alone_pool = alone[key]
        assert np.array_equal(core.view(np.int64), alone_core.view(np.int64))
        assert np.float64(sparseness).view(np.int64) == np.float64(alone_sparseness).view(np.int64)
        np.testing.assert_array_equal(pool, alone_pool)


@given(dbcv_inputs())
@settings(max_examples=100, deadline=None)
def test_scored_clusters_match_the_unique_scan(case):
    _, labels = case
    ids, sizes, members = _scored_clusters(labels)
    want_ids, want_sizes, want_members = unique_scan_clusters_oracle(labels)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(sizes, want_sizes)
    assert len(members) == len(want_members)
    for got, want in zip(members, want_members):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dbcv_report_is_the_same_when_separations_span_many_blocks(monkeypatch):
    blobs = make_blobs(n_centers=5, points_per_center=30, spread=0.1, seed=2)
    x, _ = range_standardize(blobs.matrix)
    rng = np.random.default_rng(6)
    labelings = [blobs.true_labels, rng.integers(-1, 8, size=blobs.n)]
    expected = [dbcv_report_oracle(x, labels) for labels in labelings]
    # a few rows per block: every separation pass, every cluster's distance
    # rows and every chunk of core-distance sums is split
    monkeypatch.setattr(rnncluster.data, "_BLOCK_BYTES", 8 * 2 * 40)
    monkeypatch.setattr(rnncluster.data, "_BLOCK_ROWS", 7)
    for labels, want in zip(labelings, expected):
        assert_same_report(dbcv(x, labels), want)


def test_a_shared_cluster_terms_memo_gives_the_fresh_reports():
    moons = make_two_moons(n=372, density_ratio=3.0, seed=0)
    x, _ = range_standardize(moons.matrix)
    index = build_index(x, k_max=12)
    labelings = [isdbscan(x, index, IsdbscanParams(k=k, seed=seed)).labels
                 for k in (6, 9, 12) for seed in range(3)]
    memo: dict = {}
    clusters = 0
    for labels in labelings:
        fresh = dbcv(x, labels)
        assert_same_report(dbcv(x, labels, cluster_terms=memo),
                           [getattr(fresh, name) for name in _REPORT_FIELDS])
        clusters += fresh.cluster_ids.size
    assert 0 < len(memo) < clusters  # some clusters recur across the labelings


def test_dbcv_holds_one_cluster_matrix_at_a_time():
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(0, 0.1, size=(1500, 2)), rng.normal(0, 0.1, size=(1500, 2)) + 5.0])
    labels = np.repeat([0, 1], 1500)
    tracemalloc.start()
    try:
        dbcv(x, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1,500 x 1,500 float64 matrix is 17.2 MB, and the row chunks add
    # about 3 MB; distances, reciprocals, their powers and the reach matrix
    # held at once came to 68.8 MB
    assert peak < 22 * 2**20


def test_filling_many_clusters_holds_one_stack_at_a_time():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300 * 40, 2))
    labels = np.repeat(np.arange(300), 40)
    budget = validation_module._STACK_BYTES
    assert 300 * 40 * 40 * 8 > budget + 2**20  # the slots do not fit one stack
    memo: dict = {}
    tracemalloc.start()
    try:
        fill_cluster_terms(x, [labels], memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(memo) == 300
    # one buffer holds each stack in turn; the memo, the member ids and a copy
    # of x take the rest, under 1 MiB
    assert peak < budget + 2**20


@pytest.mark.parametrize("m", [2, 30, 150, 500])
def test_dbcv_does_not_depend_on_the_data_scale(m):
    # the core distances' mean of (1/d)^m once underflowed to 0 (core inf) or
    # overflowed to inf (core 0, as for a duplicate point): m = 500 scored
    # 0.0 at scale 1, and m = 30 and 150 scored 0.0 at scale 2**40
    rng = np.random.default_rng(0)
    x, _ = range_standardize(
        np.vstack([rng.normal(0.0, 1.0, (40, m)), rng.normal(2.0, 1.0, (40, m))])
    )
    labels = np.repeat([0, 1], 40)
    scores = [dbcv(x * 2.0**e, labels).overall for e in (-40, 0, 40)]
    assert scores[1] != 0.0
    assert max(scores) - min(scores) <= 1e-12


def test_dbcv_bounds_and_relabeling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        report = dbcv(x, labels)
        assert -1.0 <= report.overall <= 1.0
        assert np.all(report.validity >= -1.0) and np.all(report.validity <= 1.0)
        renamed = np.choose(labels, [2, 0, 1])
        assert dbcv(x, renamed).overall == pytest.approx(report.overall, abs=1e-12)


def test_dbcv_weight_counts_noise_by_default():
    rng = np.random.default_rng(5)
    x = np.vstack(
        [rng.normal(0, 0.05, size=(20, 2)), rng.normal(0, 0.05, size=(20, 2)) + 3.0]
    )
    labels = np.repeat([0, 1], 20)
    noisy = labels.copy()
    noisy[:5] = -1
    report = dbcv(x, noisy)
    sizes = np.array([15.0, 20.0])
    # n = 40 counts the 5 noise entities: the noise share penalizes the score
    assert report.overall == float(np.sum(sizes / 40 * report.validity))


def test_select_best_rules():
    with pytest.raises(ValueError):
        select_best([])
    entry = (DbscrnParams(k=4), "clustering-a", 0.2)
    assert select_best([entry]) == (DbscrnParams(k=4), "clustering-a")
    better = (DbscrnParams(k=9), "clustering-b", 0.7)
    assert select_best([entry, better])[1] == "clustering-b"
    # ties resolve to the smaller parameter values
    tied_small = (DbscrnParams(k=3), "small", 0.7)
    assert select_best([better, tied_small])[1] == "small"


def test_select_best_end_to_end_on_two_rings(two_rings):
    x, _ = range_standardize(two_rings.matrix)
    index = build_index(x, k_max=10)
    entries = []
    for k in range(3, 11):
        clustering = dbscrn(x, index, DbscrnParams(k=k))
        entries.append((DbscrnParams(k=k), clustering, dbcv(x, clustering).overall))
    params, clustering = select_best(entries)
    truth = canonicalize_labels(two_rings.true_labels)
    assert adjusted_rand_index(clustering, truth.labels) == 1.0
