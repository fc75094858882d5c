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

print("point layout: 0 1 2 4 8   (squared Euclidean distances)\n")
for i in range(5):
    knn = index.knn(i, 2).tolist()
    rnn = index.rnn(i, 2).tolist()
    inf = index.influence_space(i, 2).tolist()
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
assert all(i in clump_index.knn(j, 5) for j in clump_index.rnn(i, 5))
print(f"  duality verified around the most popular entity ({i})")

# the spatial backend, a best-first search over the same leaves, returns bit-identical lists
spatial = build_index(clump, k_max=5, backend="spatial")
assert np.array_equal(spatial.knn_idx, clump_index.knn_idx)
assert np.array_equal(spatial.knn_d2, clump_index.knn_d2)
print("  brute-force and spatial backends agree bit-for-bit")
