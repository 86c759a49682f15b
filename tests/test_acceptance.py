"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cbirkit.boxes import WbfParams, fuse_detections
from cbirkit.descriptors import PoolingSpec, pool
from cbirkit.embeddings import EmbeddingMatrix, concat_features, pca_fit, pca_transform
from cbirkit.evaluation import acc_at_k, detection_ap
from cbirkit.pipeline import PipelineConfig, run_pipeline
from cbirkit.rerank import QeParams, RerankParams, database_augmentation, k_reciprocal_rerank, query_expansion
from cbirkit.search import Rankings, build_index, knn_search
from cbirkit.synthetic import SyntheticSpec, generate_synthetic

from benchmarks import concat_gain_trial, rerank_gain_trial, wbf_gain_trial
from oracles import expand_ref, knn_ref, rerank_ref, wbf_ref
from util import (boxes_to_dicts, detections, fused_to_dicts, gallery_ids, gt_table,
                  output_under_blas_threads, query_ids, random_scored_boxes, ranking_rows, rng_for,
                  unit_rows)

_SUITE_START = time.perf_counter()


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_wbf_oracle_equivalence():
    with criterion(1, "WBF matches the from-definition oracle on 200 seeded instances"):
        start = time.perf_counter()
        for seed in range(200):
            rng = rng_for(10_000 + seed)
            n_models = int(rng.integers(1, 4))
            boxes = random_scored_boxes(rng, int(rng.integers(1, 11)),
                                        n_models=n_models, n_categories=2)
            observed = {b["model_id"] for b in boxes_to_dicts(boxes)}
            if rng.random() < 0.5:
                weights = {m: float(rng.uniform(0.5, 2.0)) for m in sorted(observed)}
            else:
                weights = None
            mode = "rescale" if rng.random() < 0.8 else "mean"
            params = WbfParams(iou_threshold=0.55, model_weights=weights,
                               score_mode=mode)
            got = fused_to_dicts(fuse_detections(boxes, params))
            exp = wbf_ref(boxes_to_dicts(boxes), 0.55,
                          weights or {m: 1.0 for m in observed},
                          len(observed), mode)
            assert len(got) == len(exp)
            for g, e in zip(got, exp):
                assert g["cluster_size"] == e["cluster_size"]
                assert g["model_ids"] == e["model_ids"]
                assert g["category_id"] == e["category_id"]
                assert abs(g["score"] - e["score"]) <= 1e-9
                assert max(abs(a - b) for a, b in zip(g["box"], e["box"])) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_2_wbf_directional_gain():
    with criterion(2, "AP50 grows with ensemble size on the detector benchmark"):
        start = time.perf_counter()
        monotone = beats = 0
        for seed in range(50):
            fused_ap50, best_single = wbf_gain_trial(seed)
            monotone += all(fused_ap50[k + 1] >= fused_ap50[k] for k in range(4))
            beats += fused_ap50[4] > best_single
        assert monotone >= 45, f"monotone in only {monotone}/50 seeds"
        assert beats >= 48, f"WBF5 beat the best single in only {beats}/50 seeds"
        assert time.perf_counter() - start < 60.0


def test_criterion_3_descriptor_limits():
    with criterion(3, "GeM matches SPoC at p=1, approaches MAC at p=1000, monotone in p"):
        start = time.perf_counter()
        rng = rng_for(11_000)
        for _ in range(100):
            arr = rng.uniform(0.0, 1.0, size=(6, 5, 7)) + 1e-12
            spoc = pool(arr, PoolingSpec("spoc"))
            gem1 = pool(arr, PoolingSpec("gem", 1.0))
            assert np.abs(gem1 - spoc).max() <= 1e-9
        for _ in range(100):
            # the power-mean gap is max * ln(cells)/p, so the 1e-3 budget
            # at p=1000 requires tiny spatial grids
            arr = rng.uniform(1e-9, 1.0, size=(16, 1, 2))
            mac = pool(arr, PoolingSpec("mac"))
            gem = pool(arr, PoolingSpec("gem", 1000.0))
            assert np.abs(gem - mac).max() <= 1e-3
        for _ in range(50):
            arr = rng.uniform(0.0, 1.0, size=(4, 4, 4))
            grid = [1.0, 2.0, 3.0, 10.0, 100.0]
            pooled = [pool(arr, PoolingSpec("gem", p)) for p in grid]
            for lo, hi in zip(pooled, pooled[1:]):
                assert np.all(hi >= lo - 1e-12)
        assert time.perf_counter() - start < 5.0


def test_criterion_4_concat_cosine_identity_and_gain():
    with criterion(4, "concat cosine equals the mean of partwise cosines; 3-model concat wins"):
        rng = rng_for(12_000)
        for _ in range(1000):
            dim = int(rng.integers(4, 17))
            parts = [EmbeddingMatrix(unit_rows(rng, 2, dim), gallery_ids(2))
                     for _ in range(3)]
            cat = concat_features(parts)
            direct = float(cat.data[0] @ cat.data[1])
            partwise = np.mean([float(p.data[0] @ p.data[1]) for p in parts])
            assert abs(direct - partwise) <= 1e-6
        wins = 0
        for seed in range(50):
            combined, best_single = concat_gain_trial(seed)
            wins += combined > best_single
        assert wins >= 45, f"concat won in only {wins}/50 seeds"


def test_criterion_5_pca_whitening():
    with criterion(5, "whitening yields identity covariance; full-rank transform is isometric"):
        rng = rng_for(13_000)
        scales = np.array([3.0, 2.0, 1.5, 1.0, 0.7, 0.5, 0.3, 0.2])
        data = rng.normal(size=(10_000, 8)) * scales + rng.normal(size=8)
        m = EmbeddingMatrix(data, gallery_ids(10_000))
        model = pca_fit(m, whiten=True)
        out = pca_transform(model, m)
        cov = np.cov(out.data, rowvar=False)
        assert np.abs(cov - np.eye(8)).max() <= 5e-2

        data = rng.normal(size=(300, 24))
        m = EmbeddingMatrix(data, gallery_ids(300))
        out = pca_transform(pca_fit(m, whiten=False), m)
        for _ in range(500):
            i, j = rng.integers(0, 300, size=2)
            before = np.linalg.norm(m.data[i] - m.data[j])
            after = np.linalg.norm(out.data[i] - out.data[j])
            assert abs(after - before) <= 1e-5


# criterion 6's search, run in a fresh process per BLAS thread count: one
# line per query of its id, ranked item ids and the hex bits of each score
SEARCH_SCRIPT = (
    "from cbirkit.embeddings import EmbeddingMatrix\n"
    "from cbirkit.search import build_index, knn_search\n"
    "from util import gallery_ids, query_ids, ranking_rows, rng_for, unit_rows\n"
    "rng = rng_for(14_000)\n"
    "gallery = EmbeddingMatrix(unit_rows(rng, 2000, 128), gallery_ids(2000))\n"
    "queries = EmbeddingMatrix(unit_rows(rng, 200, 128), query_ids(200))\n"
    "for r in ranking_rows(knn_search(build_index(gallery), queries, 10)):\n"
    "    print(r.query_id, *r.item_ids, *(s.hex() for s in r.scores))\n"
)


def test_criterion_6_search_oracle():
    with criterion(6, "exact search matches the quadratic oracle under 1, 2 and 8 BLAS threads"):
        start = time.perf_counter()
        outputs = {n: output_under_blas_threads(SEARCH_SCRIPT, n) for n in (1, 2, 8)}
        assert outputs[2] == outputs[1]
        assert outputs[8] == outputs[1]
        rng = rng_for(14_000)
        gallery = EmbeddingMatrix(unit_rows(rng, 2000, 128), gallery_ids(2000))
        queries = EmbeddingMatrix(unit_rows(rng, 200, 128), query_ids(200))
        ids = [r.item_id for r in gallery.ids]
        lines = outputs[1].decode().splitlines()
        assert len(lines) == 200
        for qi, line in enumerate(lines):
            query_id, *fields = line.split()
            expected = knn_ref(gallery.data, ids, queries.data[qi], 10)
            assert query_id == queries.ids[qi].item_id
            assert fields[:10] == [e[0] for e in expected]
            assert np.allclose([float.fromhex(h) for h in fields[10:]],
                               [e[1] for e in expected], atol=1e-12)
        assert time.perf_counter() - start < 10.0


def test_criterion_7_k_reciprocal_rerank():
    with criterion(7, "re-ranked distances match the oracle; lambda=1 is identity; no Acc@10 loss"):
        rng = rng_for(15_000)
        queries = EmbeddingMatrix(unit_rows(rng, 20, 16), query_ids(20))
        gallery = EmbeddingMatrix(unit_rows(rng, 180, 16), gallery_ids(180))
        initial = knn_search(build_index(gallery), queries, 180)
        params = RerankParams(k1=20, k2=6, lam=0.3)
        got = k_reciprocal_rerank(queries, gallery, initial, params)
        rows = [[gallery.item_ids.tolist().index(i) for i in r.item_ids]
                for r in ranking_rows(initial)]
        ref = rerank_ref(queries.data, gallery.data, rows, params.k1, params.k2, params.lam)
        for ranking, pairs in zip(ranking_rows(got), ref):
            expected = {f"g{row:05d}": d for row, d in pairs}
            for item, score in zip(ranking.item_ids, ranking.scores):
                assert abs((1.0 - score) - expected[item]) <= 1e-6

        identity = k_reciprocal_rerank(queries, gallery, initial,
                                       RerankParams(k1=20, k2=6, lam=1.0))
        for before, after in zip(ranking_rows(initial), ranking_rows(identity)):
            assert after.item_ids == before.item_ids

        ok = 0
        for seed in range(50):
            before, after = rerank_gain_trial(seed)
            ok += after >= before
        assert ok >= 40, f"re-ranking kept or improved Acc@10 in only {ok}/50 seeds"


def test_criterion_8_qe_dba_contracts():
    with criterion(8, "QE k=0 identity, duplicate fixed point, DBA fixture matches oracle"):
        rng = rng_for(16_000)
        queries = EmbeddingMatrix(unit_rows(rng, 5, 8), query_ids(5))
        gallery = EmbeddingMatrix(unit_rows(rng, 30, 8), gallery_ids(30))
        assert query_expansion(queries, gallery, QeParams(k=0)) is queries

        row = unit_rows(rng, 1, 8)[0]
        dup = EmbeddingMatrix(np.tile(row, (6, 1)), gallery_ids(6))
        out = database_augmentation(dup, QeParams(k=3))
        assert np.abs(out.data - dup.data).max() <= 1e-12

        gallery = EmbeddingMatrix(unit_rows(rng, 20, 6), gallery_ids(20))
        params = QeParams(k=4, alpha=1.0)
        out = database_augmentation(gallery, params)
        sims = np.clip(gallery.data @ gallery.data.T, -1.0, 1.0)
        for i in range(20):
            order = sorted(range(20),
                           key=lambda j: (-sims[i, j], gallery.ids[j].item_id))
            top = order[: params.k]
            exp = expand_ref(gallery.data[i], [gallery.data[j] for j in top],
                             [sims[i, j] for j in top], params.alpha)
            assert np.abs(out.data[i] - exp).max() <= 1e-9


def test_criterion_9_evaluators():
    with criterion(9, "AP and Acc@K reproduce the hand-derived fixtures"):
        gt = gt_table({"img0": [((0, 0, 10, 10), 1)]})
        perfect = detections([(0, 0, 10, 10, 0.9, 1, "img0", "m0")])
        assert detection_ap(perfect, gt, [0.5]).ap50 == 1.0
        two = detections([
            (50, 50, 60, 60, 0.9, 1, "img0", "m0"),
            (0, 0, 10, 10, 0.6, 1, "img0", "m0"),
        ])
        assert detection_ap(two, gt, [0.5]).ap50 == 0.5

        gallery = [f"g{i:02d}" for i in range(12)]
        scores = np.linspace(1.0, 0.1, 12).tolist()
        rankings = Rankings.from_entries([f"q{i}" for i in range(3)], np.repeat(range(3), 12),
                                         gallery * 3, scores * 3)
        ret_gt = {"q0": {"g00"}, "q1": {"g10"}, "q2": {"g04"}}
        report = acc_at_k(rankings, ret_gt, [1, 10])
        assert report.acc[10] == pytest.approx(2 / 3, abs=0)
        assert report.acc[1] == pytest.approx(1 / 3, abs=0)

        rng = rng_for(17_000)
        for _ in range(20):
            perms = []
            rand_gt = {}
            for qi in range(25):
                perms += rng.permutation(gallery).tolist()
                rand_gt[f"q{qi}"] = {gallery[int(rng.integers(0, 12))]}
            perm_rankings = Rankings.from_entries(list(rand_gt), np.repeat(range(25), 12), perms,
                                                  scores * 25)
            ks = [1, 2, 3, 5, 8, 12]
            rep = acc_at_k(perm_rankings, rand_gt, ks)
            values = [rep.acc[k] for k in ks]
            assert all(b >= a for a, b in zip(values, values[1:]))


def test_criterion_10_end_to_end(tmp_path):
    with criterion(10, "noiseless run scores Acc@1=1.0 with byte-identical rankings"):
        spec = SyntheticSpec(seed=42, num_images=15, num_categories=4,
                             gt_boxes_per_image=2, detector_count=3,
                             embedding_models=2, embedding_dim=16,
                             jitter_sigma=0.0, score_sigma=0.0,
                             miss_rate=0.0, fp_rate=0.0,
                             cluster_spread=1.0, noise_sigma=0.0)
        out = tmp_path / "bench"
        generate_synthetic(spec, out)
        config = PipelineConfig.from_file(out / "config.json")
        blobs = []
        for threads in (1, 4, 1):
            result = run_pipeline(config, threads=threads)
            assert result.retrieval.acc[1] == 1.0
            with open(result.rankings_path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2]
        assert time.perf_counter() - _SUITE_START < 300.0, "acceptance suite exceeded 5 minutes"
