import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit.boxes import Detections, WbfParams, fuse_detections
from cbirkit.errors import DataError
from cbirkit.evaluation import acc_at_k, detection_ap
from cbirkit.search import Rankings

from oracles import detection_ap_ref
from util import boxes_to_dicts, detections, gt_table, random_scored_boxes, rng_for, take


def sb(x1, y1, x2, y2, score, category=1, image="img0", model="m0"):
    """One row for `detections`."""
    return (x1, y1, x2, y2, score, category, image, model)


def gt_of(*entries):
    """Ground truth as a table of score 0 and model id ""."""
    return detections(sb(x1, y1, x2, y2, 0.0, cat, image, "")
                      for image, x1, y1, x2, y2, cat in entries)


def entries(dets):
    """The (box, category) of each row of a table, as `gt_table` takes them."""
    return [(b["box"], b["category_id"]) for b in boxes_to_dicts(dets)]


class TestDetectionAp:
    def test_perfect_single_detection(self):
        gt = gt_of(("img0", 0, 0, 10, 10, 1))
        report = detection_ap(detections([sb(0, 0, 10, 10, 0.9)]), gt)
        assert report.ap50 == pytest.approx(1.0)
        assert report.ap75 == pytest.approx(1.0)
        assert report.ap == pytest.approx(1.0)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)

    def test_fp_above_tp_halves_ap50(self):
        gt = gt_of(("img0", 0, 0, 10, 10, 1))
        preds = detections([
            sb(50, 50, 60, 60, 0.9),   # disjoint, higher score: FP
            sb(0, 0, 10, 10, 0.6),     # exact: TP
        ])
        report = detection_ap(preds, gt, [0.5])
        assert report.ap50 == pytest.approx(0.5)
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)

    def test_prediction_only_category_scores_zero(self):
        gt = gt_of(("img0", 0, 0, 10, 10, 1))
        preds = detections([sb(0, 0, 10, 10, 0.9, category=1),
                            sb(0, 0, 10, 10, 0.8, category=2)])
        report = detection_ap(preds, gt, [0.5])
        assert report.per_category[1] == pytest.approx(1.0)
        assert report.per_category[2] == 0.0
        assert report.ap50 == pytest.approx(0.5)

    def test_missed_gt_counts_fn(self):
        gt = gt_of(("img0", 0, 0, 10, 10, 1), ("img0", 30, 30, 40, 40, 1))
        report = detection_ap(detections([sb(0, 0, 10, 10, 0.9)]), gt, [0.5])
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)
        total_gt = 2
        assert report.tp + report.fn == total_gt

    def test_ap_at_most_ap50(self):
        for seed in range(10):
            rng = rng_for(700 + seed)
            preds = random_scored_boxes(rng, 30)
            gt_boxes = random_scored_boxes(rng, 10)
            gt = gt_table({"img0": entries(gt_boxes)})
            report = detection_ap(preds, gt)
            assert report.ap <= report.ap50 + 1e-12

    def test_score_rescaling_invariance(self):
        rng = rng_for(71)
        preds = random_scored_boxes(rng, 25)
        gt_boxes = random_scored_boxes(rng, 8)
        gt = gt_table({"img0": entries(gt_boxes)})
        base = detection_ap(preds, gt)
        squashed = Detections(preds.coords, preds.scores ** 3, preds.category_ids,
                              preds.image_codes, preds.image_names, preds.model_codes,
                              preds.model_names)
        again = detection_ap(squashed, gt)
        assert again.ap == pytest.approx(base.ap, abs=1e-12)
        assert again.ap50 == pytest.approx(base.ap50, abs=1e-12)

    def test_permutation_invariance(self):
        rng = rng_for(72)
        preds = random_scored_boxes(rng, 30)
        gt_boxes = random_scored_boxes(rng, 10)
        # copies that differ only in the model: no key orders them
        first = np.repeat(np.arange(8), 3)
        preds = Detections.concat([preds, Detections.from_columns(
            preds.coords[first], preds.scores[first], preds.category_ids[first],
            ["img0"] * first.size, ["m1", "m2", "m9"] * 8)])
        gt = gt_table({"img0": entries(gt_boxes) + entries(preds)[:3]})
        base = detection_ap(preds, gt)
        for _ in range(5):
            assert detection_ap(take(preds, rng.permutation(len(preds))), gt) == base

    def test_matches_exhaustive_reference(self):
        for seed in range(15):
            rng = rng_for(800 + seed)
            preds = random_scored_boxes(rng, 30)
            gt_boxes = random_scored_boxes(rng, 10)
            gt = {"img0": entries(gt_boxes)}
            fused = fuse_detections(preds, WbfParams())
            # the fused table is scored as it comes, as its boxes would be
            fused_boxes = Detections(fused.coords, fused.scores, fused.category_ids,
                                     fused.image_codes, fused.image_names,
                                     np.zeros(len(fused), dtype=np.intp), ("wbf",))
            assert detection_ap(fused, gt_table(gt)) == detection_ap(fused_boxes, gt_table(gt))
            for scored in (preds, fused_boxes):
                report = detection_ap(scored, gt_table(gt))
                ref_preds = boxes_to_dicts(scored)
                mean_ap, ap50, ap75, per_cat = detection_ap_ref(
                    ref_preds, gt, list(report.thresholds))
                assert report.ap == pytest.approx(mean_ap, abs=1e-12)
                assert report.ap50 == pytest.approx(ap50, abs=1e-12)
                assert report.ap75 == pytest.approx(ap75, abs=1e-12)
                for c, v in per_cat.items():
                    assert report.per_category[c] == pytest.approx(v, abs=1e-12)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(DataError):
            detection_ap(detections([]), detections([]), [0.0])


def ranked(rows) -> Rankings:
    """Rankings of (query_id, ids) rows, each row's scores falling evenly
    from 1.0 to 0.1."""
    rows = list(rows)
    return Rankings.from_entries([q for q, _ in rows],
                                 [row for row, (_, ids) in enumerate(rows) for _ in ids],
                                 [i for _, ids in rows for i in ids],
                                 [s for _, ids in rows for s in np.linspace(1.0, 0.1, len(ids))])


class TestAccAtK:
    def test_hand_counted_fixture(self):
        # first ground-truth hits at ranks 1, 11 and 5
        gallery = [f"g{i:02d}" for i in range(12)]
        rankings = [
            ("q0", gallery),
            ("q1", gallery),
            ("q2", gallery),
        ]
        gt = {"q0": {"g00"}, "q1": {"g10"}, "q2": {"g04"}}
        report = acc_at_k(ranked(rankings), gt, [1, 10])
        assert report.acc[10] == pytest.approx(2 / 3)
        assert report.acc[1] == pytest.approx(1 / 3)
        assert report.first_hit_rank == {"q0": 1, "q1": 11, "q2": 5}

    def test_all_rank_one(self):
        rankings = [(f"q{i}", [f"g{i}", "other"]) for i in range(4)]
        gt = {f"q{i}": {f"g{i}"} for i in range(4)}
        report = acc_at_k(ranked(rankings), gt, [1, 10])
        assert report.acc[1] == 1.0
        assert report.acc[10] == 1.0

    def test_impossible_query_flagged(self):
        rankings = [("q0", ["g0", "g1"])]
        gt = {"q0": {"missing"}}
        report = acc_at_k(ranked(rankings), gt, [1], gallery_ids=["g0", "g1"])
        assert report.impossible_query_ids == ("q0",)
        assert report.acc[1] == 0.0
        assert report.num_queries == 1

    def test_empty_match_set_excluded(self):
        rankings = [("q0", ["g0"]), ("q1", ["g0"])]
        gt = {"q0": set(), "q1": {"g0"}}
        report = acc_at_k(ranked(rankings), gt, [1])
        assert report.num_excluded == 1
        assert report.num_queries == 1
        assert report.acc[1] == 1.0

    def test_duplicate_query_rejected(self):
        rankings = [("q0", ["g0"]), ("q0", ["g1"])]
        with pytest.raises(DataError, match="duplicate"):
            acc_at_k(ranked(rankings), {"q0": {"g0"}}, [1])

    def test_unknown_query_rejected(self):
        with pytest.raises(DataError, match="q0"):
            acc_at_k(ranked([("q0", ["g0"])]), {}, [1])

    def test_error_names_first_repeat_and_first_missing(self):
        # q1 repeats first in ranking order; q0 sorts first and q2 comes first
        order = ["q2", "q0", "q1", "q1", "q0", "q2"]
        with pytest.raises(DataError, match=r"^duplicate query_id 'q1' in rankings$"):
            acc_at_k(ranked((q, ["g0"]) for q in order), {q: {"g0"} for q in order}, [1])
        # of the missing q3 and q1, the first in sorted order is named
        rankings = [(q, ["g0"]) for q in ("q3", "q2", "q1")]
        with pytest.raises(DataError, match=r"^query 'q1' has no ground-truth entry$"):
            acc_at_k(ranked(rankings), {"q2": {"g0"}}, [1])

    def test_monotone_in_k(self):
        rng = rng_for(73)
        gallery = [f"g{i:03d}" for i in range(50)]
        rankings = []
        gt = {}
        for qi in range(30):
            perm = list(rng.permutation(gallery))
            rankings.append((f"q{qi}", perm))
            gt[f"q{qi}"] = {gallery[int(rng.integers(0, 50))]}
        ks = [1, 2, 5, 10, 20, 50]
        report = acc_at_k(ranked(rankings), gt, ks)
        values = [report.acc[k] for k in ks]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(["g0", "g1", "g2", "g3"]), unique=True,
                                       max_size=4),
                              st.sets(st.sampled_from(["g0", "g1", "g2", "x"]), max_size=3)),
                    min_size=1, max_size=5),
           st.sets(st.sampled_from(["g0", "g1", "g2", "g3", "x"])))
    def test_matches_a_per_query_reference(self, rows, gallery):
        rankings = ranked((f"q{i}", ids) for i, (ids, _) in enumerate(rows))
        gt = {f"q{i}": matches for i, (_, matches) in enumerate(rows)}
        report = acc_at_k(rankings, gt, [1, 2, 4], gallery_ids=gallery)
        first = {q: next((r for r, item in enumerate(ids, start=1) if item in gt[q]), None)
                 for q, (ids, _) in zip(gt, rows) if gt[q]}
        assert report.first_hit_rank == first
        assert report.impossible_query_ids == tuple(q for q in first
                                                    if gallery.isdisjoint(gt[q]))
        assert report.acc == {k: sum(1 for r in first.values() if r and r <= k) / len(first)
                              if first else 0.0 for k in [1, 2, 4]}

    def test_permuting_ranking_order_invariant(self):
        rng = rng_for(74)
        gallery = [f"g{i:02d}" for i in range(10)]
        rankings = [(f"q{i}", list(rng.permutation(gallery))) for i in range(8)]
        gt = {f"q{i}": {gallery[i]} for i in range(8)}
        base = acc_at_k(ranked(rankings), gt, [1, 5])
        shuffled = list(rankings)
        rng.shuffle(shuffled)
        again = acc_at_k(ranked(shuffled), gt, [1, 5])
        assert again.acc == base.acc


IMAGES = ["a", "b", "b\x00", "ç"]


@st.composite
def ap_cases(draw):
    """Predictions and ground truth over several images and categories on
    a coarse grid, with repeated boxes, equal scores, and predictions
    shifted from a ground-truth box by a unit (IoU 0.5 is common); some
    predictions fall on images without ground truth, and some copy another
    under any model."""
    def box():
        x1, y1 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        return (x1, y1, x1 + draw(st.integers(1, 4)), y1 + draw(st.integers(1, 4)))

    gt: dict[str, list] = {}
    gt_boxes = []
    for _ in range(draw(st.integers(0, 14))):
        image = draw(st.sampled_from(IMAGES))
        entry = (draw(st.sampled_from(gt_boxes))[1] if gt_boxes and draw(st.booleans())
                 else (box(), draw(st.integers(1, 3))))
        gt_boxes.append((image, entry))
        gt.setdefault(image, []).append(entry)
    preds = []
    for _ in range(draw(st.integers(0, 30))):
        score = draw(st.sampled_from([0.3, 0.6, 0.9]))
        model = draw(st.sampled_from(["m0", "m1"]))
        kind = draw(st.integers(0, 3))
        if kind == 0 and preds:
            preds.append(draw(st.sampled_from(preds))[:-1] + (model,))
        elif kind == 1 and gt_boxes:
            image, (b, category) = draw(st.sampled_from(gt_boxes))
            dx, dy = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
            x1, y1, x2, y2 = b
            preds.append((x1 + dx, y1 + dy, x2 + dx, y2 + dy, score, category, image, model))
        else:
            preds.append((*box(), score, draw(st.integers(1, 3)),
                          draw(st.sampled_from(IMAGES + ["z"])), model))
    thresholds = draw(st.sampled_from([None, [0.5], [0.3, 0.5, 0.75], [0.75, 0.5, 0.5]]))
    return detections(preds), gt, thresholds


@settings(max_examples=200, deadline=None)
@given(ap_cases())
def test_detection_ap_matches_reference(case):
    preds, gt, thresholds = case
    report = detection_ap(preds, gt_table(gt), thresholds)
    ref_preds = boxes_to_dicts(preds)
    mean_ap, ap50, ap75, per_cat = detection_ap_ref(ref_preds, gt, list(report.thresholds))
    assert report.ap == pytest.approx(mean_ap, abs=1e-12)
    for got, want, level in ((report.ap50, ap50, 0.5), (report.ap75, ap75, 0.75)):
        if level in report.thresholds:
            # with no category at all the reference reads None, the library 0
            assert got == pytest.approx(want or 0.0, abs=1e-12)
        else:
            assert got is None
    assert report.per_category.keys() == per_cat.keys()
    for c, v in per_cat.items():
        assert report.per_category[c] == pytest.approx(v, abs=1e-12)
