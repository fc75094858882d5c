"""
kNN, reverse-kNN and the k-influence space
==========================================

The query engine underneath every algorithm in the package. Reverse
neighbour counts measure local popularity: dense-region entities appear in
many other entities' kNN lists, outliers in none.

Run:  python demos/02_neighbor_queries.py
"""

import numpy as np

from rnncluster import build_index

# five points on a line, deliberately with ties: 1 is equidistant to 0 and 2
x = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])
index = build_index(x, k_max=4)

# in bulk: NN_k(i) is row i's first k columns of knn_idx, RNN_k(i) is row i
# of the reverse lists, and row i of the influence graph is i, then IS_k(i)
rnn_offsets, rnn_members = index.rnn_csr(2)
is_offsets, is_members = index.influence_csr(2)
print("point layout: 0 1 2 4 8   (squared Euclidean distances)\n")
for i in range(5):
    knn = index.knn_idx[i, :2].tolist()
    rnn = rnn_members[rnn_offsets[i] : rnn_offsets[i + 1]].tolist()
    inf = sorted(is_members[is_offsets[i] + 1 : is_offsets[i + 1]].tolist())
    print(f"entity {i} (coord {x[i,0]:3.0f}):  NN_2={knn}  RNN_2={rnn}  IS_2={inf}")

# |RNN_k| is unbounded above, unlike |NN_k| = k: watch the middle of a clump
rng = np.random.default_rng(0)
clump = np.vstack([rng.normal(0, 0.05, (30, 2)), rng.normal(4, 0.05, (3, 2))])
clump_index = build_index(clump, k_max=5)
sizes = clump_index.rnn_sizes(5)
print(f"\n30-point clump + 3 stragglers, k=5:")
print(f"  |RNN_5| over the clump: min {sizes[:30].min()}, max {sizes[:30].max()}")
print(f"  |RNN_5| of the stragglers: {sizes[30:].tolist()}")

# duality: j in RNN_k(i) exactly when i in NN_k(j)
i = int(np.argmax(sizes))
offsets, members = clump_index.rnn_csr(5)
assert all(i in clump_index.knn_idx[j, :5] for j in members[offsets[i] : offsets[i + 1]])
print(f"  duality verified around the most popular entity ({i})")

# backend="spatial" is the unpruned reference: every pair, one stable sort per
# row; the pruned default build returns bit-identical lists
reference = build_index(clump, k_max=5, backend="spatial")
assert np.array_equal(reference.knn_idx, clump_index.knn_idx)
assert np.array_equal(reference.knn_d2, clump_index.knn_d2)
print("  the pruned build and the unpruned reference agree bit-for-bit")
