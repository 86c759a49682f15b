import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import boxes as boxes_module
from cbirkit.boxes import (
    SCORE_MODES,
    Detections,
    FusedDetections,
    WbfParams,
    fuse_detections,
    iou,
    nms,
)
from cbirkit.errors import ConfigError, DataError
from cbirkit.search import Rankings
from cbirkit.synthetic import SyntheticSpec, synth_detections, synth_layout

from oracles import fuse_detections_ref, nms_ref, wbf_ref
from util import (boxes_to_dicts, detections, fused_to_dicts, random_box, random_scored_boxes,
                  rng_for, take)


def sb(x1, y1, x2, y2, score, category=1, image="img0", model="m0"):
    """One row for `detections`."""
    return (x1, y1, x2, y2, score, category, image, model)


# image ids that fixed-width string arrays or byte-wise handling would
# conflate or truncate: a trailing NUL, non-ASCII, a line separator
ODD_IMAGE_IDS = ["img", "img\x00", "imgé", "图像", "img\x00\x00", "a b"]


@st.composite
def detection_sets(draw, distinct_scores=False, n_categories=2):
    """Boxes on a coarse grid over a few images, categories and models, so
    that overlaps and equal scores are common; about a third of the boxes
    copy an earlier box of their image and category (IoU exactly 1)."""
    n = draw(st.integers(0, 40))
    if distinct_scores:
        scores = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n, unique=True))
    else:
        scores = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
                               min_size=n, max_size=n))
    rows = []
    for score in scores:
        model = draw(st.sampled_from(["m0", "m1", "m2"]))
        if rows and draw(st.integers(0, 2)) == 0:
            x1, y1, x2, y2, _, category, image, _ = draw(st.sampled_from(rows))
            rows.append((x1, y1, x2, y2, score, category, image, model))
            continue
        x1, y1 = draw(st.integers(0, 24)), draw(st.integers(0, 24))
        w, h = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        rows.append((x1 * 0.5, y1 * 0.5, x1 * 0.5 + w, y1 * 0.5 + h, score,
                     draw(st.integers(1, n_categories)), draw(st.sampled_from(ODD_IMAGE_IDS)),
                     model))
    return detections(rows)


def assert_rejected(box):
    """iou rejects `box`, on either side, with the message a table gives it."""
    with pytest.raises(DataError) as by_table:
        Detections.from_columns([box], [0.5], [1], ["i"], ["m"])
    for pair in ((box, (0, 0, 1, 1)), ((0, 0, 1, 1), box)):
        with pytest.raises(DataError) as by_iou:
            iou(*pair)
        assert str(by_iou.value) == str(by_table.value)


class TestBoundingBox:
    def test_rejects_zero_area(self):
        assert_rejected((0, 0, 0, 10))
        assert_rejected((5, 5, 5, 5))

    def test_rejects_inverted(self):
        assert_rejected((10, 0, 0, 10))

    def test_rejects_non_finite(self):
        assert_rejected((0, 0, float("nan"), 10))
        assert_rejected((0, 0, float("inf"), 10))

    def test_rejects_wrong_length(self):
        with pytest.raises(DataError, match="x1, y1, x2, y2"):
            iou((0, 0, 1), (0, 0, 1, 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: Detections.from_columns([("0", "0", "1", "1")], ["0.5"], [True], ["i"], ["m"]),
         "coords: '0' is not a number"),
        (lambda: Detections.from_columns([(0, 0, 1, 1)], ["0.5"], [1], ["i"], ["m"]),
         "scores: '0.5' is not a number"),
        (lambda: Detections.from_columns(np.ones((1, 4)) > 0, [0.5], [1], ["i"], ["m"]),
         "coords: True is not a number"),
        (lambda: iou(("0", "0", "1", "1"), (0, 0, 1, 1)), "coords: '0' is not a number"),
        (lambda: iou((0, 0, 1, 1), (0, 0, True, 1)), "coords: True is not a number"),
        (lambda: Rankings.from_entries(["q"], [0], ["g"], ["0.5"]),
         "scores: '0.5' is not a number"),
        (lambda: Rankings.from_entries(["q"], [0, 0], ["g", "h"], [1.0, False]),
         "scores: False is not a number"),
    ], ids=["table-strings", "table-score-string", "table-bool-array", "iou-strings",
            "iou-bool", "rankings-string", "rankings-bool"])
    def test_rejects_strings_and_booleans(self, build, message):
        # a cast would take each for a number
        with pytest.raises(DataError, match=f"^{message}$"):
            build()


class TestIou:
    def test_identity(self):
        b = (0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        v = iou((0, 0, 2, 2), (1, 1, 3, 3))
        assert v == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_symmetry(self):
        rng = rng_for(11)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(iou(b, a), abs=0)


class TestNms:
    def test_singleton(self):
        dets = detections([sb(0, 0, 10, 10, 0.7)])
        assert boxes_to_dicts(nms(dets, 0.5)) == boxes_to_dicts(dets)[:1]

    def test_empty(self):
        assert boxes_to_dicts(nms(detections([]), 0.5)) == []

    def test_full_overlap_keeps_top(self):
        dets = detections([sb(0, 0, 10, 10, 0.9), sb(0, 0, 10, 10, 0.8, model="m1")])
        assert boxes_to_dicts(nms(dets, 0.5)) == boxes_to_dicts(dets)[:1]

    def test_category_isolation(self):
        dets = detections([sb(0, 0, 10, 10, 0.9, category=1), sb(0, 0, 10, 10, 0.8, category=2)])
        assert len(nms(dets, 0.5)) == 2

    def test_mixed_images_equal_per_image_calls(self):
        rng = rng_for(1500)
        images = ["b", "a", "c\x00", "a b"]
        boxes = Detections.concat([random_scored_boxes(rng, 12, image_id=image)
                                   for image in images])
        boxes = take(boxes, rng.permutation(len(boxes)))
        # image codes are in id order
        per_image = [nms(take(boxes, boxes.image_codes == code), 0.3)
                     for code in range(len(images))]
        assert boxes_to_dicts(nms(boxes, 0.3)) == [b for kept in per_image
                                                   for b in boxes_to_dicts(kept)]

    @settings(max_examples=200, deadline=None)
    @given(detection_sets(n_categories=4), st.sampled_from([1e-4, 0.5, 1.0]), st.data(),
           st.sampled_from([1, 3, boxes_module.BLOCK_BOXES]))
    def test_matches_oracle_per_image(self, boxes, threshold, data, budget):
        # copies of drawn boxes under other scores and models: IoU exactly 1
        rows = boxes_to_dicts(boxes)
        copies = data.draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
        boxes = Detections.concat([boxes, detections(
            (*b["box"], data.draw(st.sampled_from([0.2, 0.5, 0.9])), b["category_id"],
             b["image_id"], data.draw(st.sampled_from(["m0", "m1", "m2"]))) for b in copies)])
        rows = boxes_to_dicts(boxes)
        expected = []
        for image in sorted({b["image_id"] for b in rows}):
            expected += nms_ref([b for b in rows if b["image_id"] == image], threshold)
        # the wavefront runs per block of whole images, at most `budget` boxes
        with mock.patch.object(boxes_module, "BLOCK_BOXES", budget):
            assert boxes_to_dicts(nms(boxes, threshold)) == expected

    @pytest.mark.parametrize("threshold", [-1.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        dets = detections([sb(0, 0, 10, 10, 0.9), sb(1, 1, 11, 11, 0.8),
                           sb(50, 50, 60, 60, 0.7)])
        with pytest.raises(ConfigError, match=r"iou_threshold .* outside \[0, 1\]"):
            nms(dets, threshold)

    def test_matches_quadratic_reference(self):
        for seed in range(40):
            rng = rng_for(1000 + seed)
            boxes = random_scored_boxes(rng, 8)
            kept = nms(boxes, 0.4)
            ref = nms_ref(boxes_to_dicts(boxes), 0.4)
            assert boxes_to_dicts(kept) == ref


def fuse_simple(rows, **kwargs):
    return fused_to_dicts(fuse_detections(detections(rows), WbfParams(**kwargs)))


class TestWbfParams:
    def test_zero_models_rejected(self):
        with pytest.raises(ConfigError):
            WbfParams(num_models=0)

    @pytest.mark.parametrize("value", [1.5, True, np.float64(2.0)])
    def test_num_models_must_be_an_integer(self, value):
        # 1.5 once passed and rescaled every score by 1/1.5
        with pytest.raises(ConfigError) as e:
            WbfParams(num_models=value)
        assert str(e.value) == f"num_models must be an integer, got {value!r}"
        assert WbfParams(num_models=np.int64(2)).num_models == 2

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            WbfParams(iou_threshold=1.5)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            WbfParams(model_weights={"m0": 0.0})


class TestWbfFuse:
    def test_empty(self):
        assert fuse_simple([]) == []

    def test_singleton_passthrough(self):
        b = sb(0, 0, 10, 10, 0.8)
        [f] = fuse_simple([b], num_models=1)
        assert f["box"] == (0, 0, 10, 10)
        assert f["score"] == pytest.approx(0.8, abs=1e-12)
        assert f["cluster_size"] == 1
        assert f["model_ids"] == frozenset({"m0"})

    def test_two_models_identical_box_rescale(self):
        boxes = [sb(0, 0, 10, 10, 0.8, model="m0"), sb(0, 0, 10, 10, 0.6, model="m1")]
        [f] = fuse_simple(boxes, num_models=2)
        assert f["box"] == pytest.approx((0, 0, 10, 10), abs=1e-12)
        # min(2, 2)/2 * (0.8 + 0.6)/2
        assert f["score"] == pytest.approx(0.7, abs=1e-12)
        assert f["cluster_size"] == 2

    def test_agreement_idempotence(self):
        # all N models emitting the same box at the same score fuse to it
        boxes = [sb(2, 3, 20, 30, 0.55, model=f"m{i}") for i in range(4)]
        [f] = fuse_simple(boxes)
        assert f["box"] == pytest.approx((2, 3, 20, 30), abs=1e-12)
        assert f["score"] == pytest.approx(0.55, abs=1e-12)

    def test_unknown_model_weight_named(self):
        boxes = [sb(0, 0, 10, 10, 0.8, model="mystery")]
        with pytest.raises(ConfigError, match="mystery"):
            fuse_simple(boxes, model_weights={"m0": 1.0})

    def test_num_models_below_observed_rejected(self):
        boxes = [sb(0, 0, 10, 10, 0.8, model="m0"),
                 sb(50, 50, 60, 60, 0.8, model="m1")]
        with pytest.raises(ConfigError):
            fuse_simple(boxes, num_models=1)

    def test_single_model_cluster_demoted_by_rescale(self):
        near = [sb(0, 0, 10, 10, 0.9, model="m0"), sb(1, 0, 11, 10, 0.9, model="m1")]
        lone = [sb(50, 50, 70, 70, 0.9, model="m0")]
        fused = fuse_simple(near + lone, num_models=2)
        assert len(fused) == 2
        pair = next(f for f in fused if f["cluster_size"] == 2)
        solo = next(f for f in fused if f["cluster_size"] == 1)
        assert pair["score"] == pytest.approx(0.9, abs=1e-12)
        assert solo["score"] == pytest.approx(0.45, abs=1e-12)

    def test_mean_mode_skips_rescale(self):
        lone = [sb(50, 50, 70, 70, 0.9, model="m0")]
        [f] = fuse_simple(lone, num_models=3, score_mode="mean")
        assert f["score"] == pytest.approx(0.9, abs=1e-12)

    def test_category_isolation(self):
        a = sb(0, 0, 10, 10, 0.9, category=1)
        b = sb(0, 0, 10, 10, 0.9, category=2, model="m1")
        fused = fuse_simple([a, b], num_models=2)
        assert sorted(f["category_id"] for f in fused) == [1, 2]
        assert all(f["cluster_size"] == 1 for f in fused)

    def test_containment_and_partition(self):
        for seed in range(30):
            rng = rng_for(2000 + seed)
            boxes = random_scored_boxes(rng, 10)
            fused = fused_to_dicts(fuse_detections(boxes, WbfParams()))
            assert sum(f["cluster_size"] for f in fused) == len(boxes)
            assert len(fused) <= len(boxes)
            rows = boxes_to_dicts(boxes)
            for f in fused:
                lo = [min(b["box"][c] for b in rows) for c in range(4)]
                hi = [max(b["box"][c] for b in rows) for c in range(4)]
                for c, v in enumerate(f["box"]):
                    assert lo[c] - 1e-9 <= v <= hi[c] + 1e-9

    def test_rescaled_score_bounded_by_best_member(self):
        # with uniform weights the rescaled fused score cannot exceed the
        # best member confidence
        for seed in range(20):
            rng = rng_for(2500 + seed)
            boxes = random_scored_boxes(rng, 10)
            best = max(boxes.scores.tolist())
            for f in fused_to_dicts(fuse_detections(boxes, WbfParams())):
                assert f["score"] <= best + 1e-12

    def test_matches_reference_oracle(self):
        # acceptance-scale check lives in test_acceptance; this is the
        # fast smoke version
        for seed in range(25):
            rng = rng_for(3000 + seed)
            boxes = random_scored_boxes(rng, int(rng.integers(1, 11)))
            got = fused_to_dicts(fuse_detections(boxes, WbfParams()))
            weights = {f"m{i}": 1.0 for i in range(3)}
            exp = wbf_ref(boxes_to_dicts(boxes), 0.55, weights,
                          len({b["model_id"] for b in boxes_to_dicts(boxes)}))
            assert len(got) == len(exp)
            for g, e in zip(got, exp):
                assert g["cluster_size"] == e["cluster_size"]
                assert g["model_ids"] == e["model_ids"]
                assert g["category_id"] == e["category_id"]
                assert g["score"] == pytest.approx(e["score"], abs=1e-9)
                assert np.allclose(g["box"], e["box"], atol=1e-9)


def expected_fusion(boxes, params):
    """Per image in id order: the oracle's clusters, or the ConfigError
    message of the first image whose models the parameters cannot cover."""
    out = []
    rows = boxes_to_dicts(boxes)
    for image in sorted({b["image_id"] for b in rows}):
        mine = [b for b in rows if b["image_id"] == image]
        observed = {b["model_id"] for b in mine}
        weights = params.model_weights or {m: 1.0 for m in observed}
        missing = sorted(observed - set(weights))
        if missing:
            return f"no weight configured for model '{missing[0]}'"
        if params.num_models is not None and params.num_models < len(observed):
            return (f"num_models={params.num_models} is less than the "
                    f"{len(observed)} distinct models observed")
        n_models = params.num_models or len(observed)
        out += [(image, f) for f in wbf_ref(mine, params.iou_threshold, weights, n_models,
                                            params.score_mode)]
    return out


WEIGHT_TABLES = [None, {"m0": 2.0, "m1": 0.5, "m2": 1.0}, {"m0": 1.5, "m2": 0.75}]


class TestFuseDetections:
    @settings(max_examples=200, deadline=None)
    @given(detection_sets(), st.sampled_from([0.0, 0.3, 0.55, 0.9]),
           st.sampled_from(WEIGHT_TABLES),
           st.sampled_from([None, 1, 2, 3, 5]), st.sampled_from(SCORE_MODES))
    def test_matches_per_image_oracle(self, boxes, threshold, weights, num_models, mode):
        params = WbfParams(iou_threshold=threshold, model_weights=weights,
                           num_models=num_models, score_mode=mode)
        expected = expected_fusion(boxes, params)
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as e:
                fuse_detections(boxes, params)
            assert str(e.value) == expected
            return
        got = fused_to_dicts(fuse_detections(boxes, params))
        assert len(got) == len(expected)
        for g, (image, e) in zip(got, expected):
            assert g["image_id"] == image
            assert g["cluster_size"] == e["cluster_size"]
            assert g["model_ids"] == e["model_ids"]
            assert g["category_id"] == e["category_id"]
            assert abs(g["score"] - e["score"]) <= 1e-9
            assert max(abs(a - b) for a, b in zip(g["box"], e["box"])) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(detection_sets(distinct_scores=True), st.data())
    def test_invariant_under_input_order(self, boxes, data):
        base = fused_to_dicts(fuse_detections(boxes, WbfParams()))
        # the images in a drawn order, each image's boxes in input order
        rank = np.array(data.draw(st.permutations(range(len(boxes.image_names)))), dtype=np.intp)
        by_image = np.argsort(rank[boxes.image_codes], kind="stable")
        assert fused_to_dicts(fuse_detections(take(boxes, by_image), WbfParams())) == base
        # with distinct (score, model_id) keys no tie reaches the input index
        shuffled = np.array(data.draw(st.permutations(range(len(boxes)))), dtype=np.intp)
        assert fused_to_dicts(fuse_detections(take(boxes, shuffled), WbfParams())) == base

    def test_tables_are_read_only_columns(self):
        dets = random_scored_boxes(rng_for(4000), 30)
        for table in (dets, fuse_detections(dets, WbfParams())):
            assert len(table) == table.coords.shape[0] == table.scores.shape[0]
            # no rows to index, iterate or compare with a list
            with pytest.raises(TypeError):
                table[0]
            with pytest.raises(TypeError):
                iter(table)
            assert table != []
            with pytest.raises(ValueError):
                table.coords[0, 0] = 1.0

    def test_concat_merges_name_tables(self):
        a = detections([sb(0, 0, 1, 1, 0.5, image="b", model="m1")])
        b = detections([sb(0, 0, 2, 2, 0.6, image="a", model="m0"),
                        sb(0, 0, 3, 3, 0.7, image="b", model="m2")])
        both = Detections.concat([a, b])
        assert boxes_to_dicts(both) == boxes_to_dicts(a) + boxes_to_dicts(b)
        assert both.image_names == ("a", "b") and both.model_names == ("m0", "m1", "m2")
        empty = Detections.concat([])
        assert boxes_to_dicts(empty) == [] == fused_to_dicts(fuse_detections(empty, WbfParams()))

    def test_invalid_columns_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            Detections.from_columns([[0, 0, 0, 1]], [0.5], [1], ["i"], ["m"])
        with pytest.raises(DataError, match="score"):
            Detections.from_columns([[0, 0, 1, 1]], [1.5], [1], ["i"], ["m"])

    @pytest.mark.parametrize("build, message", [
        (lambda: Detections([[0, 0, 1, 1]], [0.5], [1], [-1], ("a", "b"), [0], ("m",)),
         "row 0: image code -1 outside the table of 2 image names"),
        (lambda: Detections([[0, 0, 1, 1]] * 2, [0.5] * 2, [1] * 2, [0, 1], ("a",), [0, 0],
                            ("m",)),
         "row 1: image code 1 outside the table of 1 image names"),
        (lambda: Detections([[0, 0, 1, 1]] * 2, [0.5] * 2, [1] * 2, [0, 0], ("a",), [0, 3],
                            ("m",)),
         "row 1: model code 3 outside the table of 1 model names"),
        (lambda: FusedDetections([[0, 0, 1, 1]] * 2, [0.5] * 2, [1] * 2, [0, 2], ("a",), [1, 1],
                                 [0, 1, 2], [0, 0], ("m",)),
         "row 1: image code 2 outside the table of 1 image names"),
        (lambda: FusedDetections([[0, 0, 1, 1]] * 3, [0.5] * 3, [1] * 3, [0] * 3, ("a",),
                                 [1, 2, 1], [0, 1, 3, 4], [0, 0, -1, 0], ("m", "n")),
         "row 1: model code -1 outside the table of 2 model names"),
        (lambda: FusedDetections([[0, 0, 1, 1]], [0.5], [1], [0], ("a",), [1], [0, 2], [0],
                                 ("m",)),
         "model_indptr must hold one offset per cluster plus one, "
         "rising from 0 to the number of model codes"),
    ], ids=["negative-image", "image-past-end", "model-past-end", "fused-image",
            "fused-model-cluster", "fused-indptr"])
    def test_codes_outside_name_tables_rejected(self, build, message):
        # a code of -1 would read as the last name, and one past the end
        # would fail a writer halfway through its file
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("column", ["image_names", "model_names"])
    @pytest.mark.parametrize("names, message", [
        (("b", "a"), "'a' follows 'b'"), (("a", "a"), "'a' follows 'a'")],
        ids=["unsorted", "repeated"])
    @pytest.mark.parametrize("table", ["detections", "fused"])
    def test_name_tables_must_ascend(self, table, names, message, column):
        # code order is name order: fusion and the blocked steps put image
        # "b" before "a" in such a table
        tables = {"image_names": ("a",), "model_names": ("m",), column: names}
        with pytest.raises(DataError, match=f"^{column} must be distinct and ascending: "
                                            f"{re.escape(message)}$"):
            if table == "detections":
                Detections([[0, 0, 1, 1]] * 2, [0.5, 0.6], [1, 1], [0, 0], tables["image_names"],
                           [0, 0], tables["model_names"])
            else:
                FusedDetections([[0, 0, 1, 1]] * 2, [0.5, 0.6], [1, 1], [0, 0],
                                tables["image_names"], [1, 1], [0, 1, 2], [0, 0],
                                tables["model_names"])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), 1.5])
    def test_fused_score_rules_match_detections(self, score):
        # a NaN score would be written as `nan`, which is not JSON
        with pytest.raises(DataError) as by_detections:
            Detections([[0, 0, 1, 1]], [score], [1], [0], ("a",), [0], ("m",))
        with pytest.raises(DataError) as by_fused:
            FusedDetections([[0, 0, 1, 1]], [score], [1], [0], ("a",), [1], [0, 1], [0], ("m",))
        assert str(by_fused.value) == str(by_detections.value) == f"score {score!r} outside [0, 1]"


FUSED_COLUMNS = ("coords", "scores", "category_ids", "image_codes", "cluster_sizes",
                 "model_indptr", "model_codes")


def assert_fuses_like_whole_table(boxes, params, budget):
    """fuse_detections in blocks of `budget` boxes gives the whole-table
    wavefront's columns bit for bit, or its ConfigError."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boxes_module, "BLOCK_BOXES", budget)
        try:
            expected = fuse_detections_ref(boxes, params)
        except ConfigError as e:
            with pytest.raises(ConfigError) as got:
                fuse_detections(boxes, params)
            assert str(got.value) == str(e)
            return
        got = fuse_detections(boxes, params)
    assert (got.image_names, got.model_names) == (expected.image_names, expected.model_names)
    for column in FUSED_COLUMNS:
        a, b = getattr(got, column), getattr(expected, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
        assert a.tobytes() == b.tobytes(), column


def one_large_image(n_boxes):
    """A table whose middle image holds n_boxes boxes, four to a category,
    between two images of three boxes."""
    rng = rng_for(7)
    images = np.repeat([0, 1, 2], [3, n_boxes, 3])
    n = images.size
    corner = rng.uniform(0.0, 20.0, size=(n, 2))
    side = rng.uniform(5.0, 15.0, size=(n, 2))
    return Detections(np.hstack([corner, corner + side]), rng.choice([0.2, 0.5, 0.9], n),
                      np.arange(n) // 4 + 1, images, ("a", "big", "z"),
                      rng.integers(0, 3, n), ("m0", "m1", "m2"))


class TestBlockedFusion:
    @pytest.mark.parametrize("budget", [1, 3, boxes_module.BLOCK_BOXES])
    @settings(max_examples=150, deadline=None)
    @given(detection_sets(), st.sampled_from([0.0, 0.3, 0.55, 0.9]),
           st.sampled_from(WEIGHT_TABLES), st.one_of(st.none(), st.integers(1, 5)),
           st.sampled_from(SCORE_MODES))
    def test_equals_the_whole_table_wavefront_bit_for_bit(self, budget, boxes, threshold,
                                                          weights, num_models, mode):
        params = WbfParams(iou_threshold=threshold, model_weights=weights,
                           num_models=num_models, score_mode=mode)
        assert_fuses_like_whole_table(boxes, params, budget)

    @pytest.mark.parametrize("budget", [1, 3, boxes_module.BLOCK_BOXES])
    def test_empty_table_and_an_image_over_the_budget(self, budget):
        assert_fuses_like_whole_table(detections([]), WbfParams(), budget)
        boxes = one_large_image(max(budget, 3) + 5)
        assert_fuses_like_whole_table(boxes, WbfParams(iou_threshold=0.3), budget)
        assert_fuses_like_whole_table(boxes, WbfParams(num_models=2), budget)

    def test_memory_grows_with_the_block_not_the_table(self):
        # fusing the whole table at once held about 290 bytes per box
        spec = SyntheticSpec(seed=3, num_images=4000, num_categories=5, gt_boxes_per_image=6,
                             detector_count=5, jitter_sigma=8.0, miss_rate=0.2, fp_rate=0.3)
        objects = synth_layout(spec)
        boxes = Detections.concat([synth_detections(spec, objects, d) for d in range(5)])
        assert len(boxes) > 8 * boxes_module.BLOCK_BOXES
        tracemalloc.start()
        try:
            fused = fuse_detections(boxes, WbfParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(getattr(fused, column).nbytes for column in FUSED_COLUMNS)
        # the sort keys and the model checks over the whole table, plus one
        # block's working arrays
        assert peak - out < 64 * len(boxes) + 400 * boxes_module.BLOCK_BOXES
