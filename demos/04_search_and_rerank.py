"""Exact retrieval, query expansion, and k-reciprocal re-ranking.

The gallery holds several product shots per item plus look-alike
distractors that belong to no item. Plain cosine search sometimes lets a
distractor crowd out the real product; re-ranking checks whether a
candidate's neighborhood points back at the query (distractors' don't)
and fixes a share of those misses.
"""

import numpy as np

from cbirkit import (QeParams, RerankParams, acc_at_k, build_index, every_gallery_row,
                     k_reciprocal_rerank, knn_search, query_expansion)
from cbirkit.embeddings import EmbeddingMatrix, IdRecord

rng = np.random.default_rng(7)
dim, n_items, noise = 32, 40, 0.12
unit = lambda v: v / np.linalg.norm(v, axis=-1, keepdims=True)

centers = unit(rng.normal(size=(n_items, dim)))
gallery_rows, gallery_ids, queries_rows, query_ids, gt = [], [], [], [], {}
for i in range(n_items):
    matches = set()
    for s in range(6):  # six catalog shots per item
        gid = f"g{i:03d}.{s}"
        gallery_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
        gallery_ids.append(IdRecord(gid, "catalog", gid, 1 + i % 5, "gallery"))
        matches.add(gid)
    for h in range(14):  # singleton look-alikes near the item
        gid = f"x{i:03d}.{h}"
        gallery_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
        gallery_ids.append(IdRecord(gid, "catalog", gid, 1 + i % 5, "gallery"))
    for t in range(2):  # two query crops per item
        qid = f"q{i:03d}.{t}"
        queries_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
        query_ids.append(IdRecord(qid, f"img{i:03d}", f"img{i:03d}:b{t}", 1 + i % 5, "query"))
        gt[qid] = matches

gallery = EmbeddingMatrix(np.array(gallery_rows), gallery_ids)
queries = EmbeddingMatrix(np.array(queries_rows), query_ids)
index = build_index(gallery)

top10 = knn_search(index, queries, 10)
print("gallery:", gallery.n_rows, "rows;", "queries:", queries.n_rows)
print("Acc@10 with plain cosine search:",
      round(acc_at_k(top10, gt, [10]).acc[10], 4))

expanded = query_expansion(queries, gallery, QeParams(k=5, alpha=1.0))
qe_rankings = knn_search(index, expanded, 10)
print("Acc@10 after query expansion:  ",
      round(acc_at_k(qe_rankings, gt, [10]).acc[10], 4))

# re-rank every gallery row straight to the first ten
reranked = k_reciprocal_rerank(queries, gallery, every_gallery_row(queries, gallery),
                               RerankParams(k1=20, k2=6, lam=0.3), k=10)
print("Acc@10 after k-reciprocal rerank:",
      round(acc_at_k(reranked, gt, [10]).acc[10], 4))
