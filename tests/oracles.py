"""Independent reference implementations used to check the library.

Everything here is written straight from the operation definitions with
plain Python loops and no shared code with the package, so agreement is
meaningful.  Slow on purpose; only run at desk scale.  The exceptions are
`expanded_sets_ref`, `encodings_ref` and `fuse_detections_ref`: whole-array
numpy forms of the re-ranking encodings and of box fusion, built over
every point or box at once, that the blocked library code must equal bit
for bit.  They take their cosines from the library's `pair_scores`, and
their box geometry, index helpers and model checks from the library's
own, which the blocking leaves alone.
"""

from __future__ import annotations

import math

import numpy as np

from cbirkit._arrays import ranges, run_starts, unique_sorted, wavefront
from cbirkit.boxes import FusedDetections, _clip01, _model_counts, areas, overlaps
from cbirkit.search import pair_scores


def iou_ref(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def nms_ref(boxes, iou_threshold, per_category=True):
    """boxes: list of dicts with keys box, score, category_id, model_id.
    Returns the kept subset in descending-score order."""
    order = sorted(range(len(boxes)),
                   key=lambda i: (-boxes[i]["score"], boxes[i]["model_id"], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if per_category and boxes[j]["category_id"] != boxes[i]["category_id"]:
                continue
            if iou_ref(boxes[i]["box"], boxes[j]["box"]) >= iou_threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


def wbf_ref(boxes, iou_threshold, weights, num_models, score_mode="rescale"):
    """From-definition weighted fusion; the fused box of a cluster is
    recomputed from scratch from all members after every insertion.

    boxes: list of dicts with keys box (x1,y1,x2,y2), score, category_id,
    model_id.  Returns fused dicts sorted by descending score with keys
    box, score, category_id, cluster_size, model_ids.
    """

    def weighted_score(b):
        return min(1.0, max(0.0, b["score"] * weights[b["model_id"]]))

    def fuse_members(members):
        total = sum(weighted_score(m) for m in members)
        coords = []
        for c in range(4):
            if total > 0:
                coords.append(sum(weighted_score(m) * m["box"][c] for m in members) / total)
            else:
                coords.append(sum(m["box"][c] for m in members) / len(members))
        return tuple(coords)

    fused = []
    for cat in sorted({b["category_id"] for b in boxes}):
        members_of_cat = [(i, b) for i, b in enumerate(boxes) if b["category_id"] == cat]
        members_of_cat.sort(key=lambda ib: (-weighted_score(ib[1]), ib[1]["model_id"], ib[0]))
        clusters = []  # each: list of member dicts
        for _, b in members_of_cat:
            placed = False
            for cluster in clusters:
                if iou_ref(fuse_members(cluster), b["box"]) > iou_threshold:
                    cluster.append(b)
                    placed = True
                    break
            if not placed:
                clusters.append([b])
        for cluster in clusters:
            t = len(cluster)
            score = sum(weighted_score(m) for m in cluster) / t
            if score_mode == "rescale":
                score *= min(t, num_models) / num_models
            score = min(1.0, max(0.0, score))
            fused.append({
                "box": fuse_members(cluster),
                "score": score,
                "category_id": cat,
                "cluster_size": t,
                "model_ids": frozenset(m["model_id"] for m in cluster),
            })
    fused.sort(key=lambda f: -f["score"])
    return fused


def fuse_detections_ref(boxes, params):
    """`fuse_detections` with one wavefront over every (image, category)
    group of the table at once, as first written."""
    if len(boxes) == 0:
        return FusedDetections(boxes.coords, boxes.scores, boxes.category_ids, boxes.image_codes,
                               boxes.image_names, [], [0], [], boxes.model_names)
    observed = _model_counts(boxes, params)
    weights = params.model_weights or {}
    weight = np.array([weights.get(m, 1.0) for m in boxes.model_names], dtype=np.float64)
    weighted = _clip01(boxes.scores * weight[boxes.model_codes])

    order = np.lexsort((boxes.model_codes, -weighted, boxes.category_ids, boxes.image_codes))
    coords, w = boxes.coords[order], weighted[order]
    area = areas(coords)
    bounds = run_starts(boxes.image_codes[order], boxes.category_ids[order])
    start = bounds[:-1]

    n = len(boxes)
    n_clusters = np.zeros(start.size, dtype=np.intp)
    wsum, size = np.zeros(n), np.zeros(n, dtype=np.int64)
    wcoords, csum = np.zeros((n, 4)), np.zeros((n, 4))
    fused, fused_area = np.zeros((n, 4)), np.zeros(n)
    slot = np.empty(n, dtype=np.intp)
    for s, group in enumerate(wavefront(np.diff(bounds))):
        box = start[group] + s
        k = n_clusters[group]
        target = start[group] + k
        candidates = ranges(start[group], k)
        if candidates.size:
            owner = np.repeat(np.arange(group.size), k)
            b = box[owner]
            hit = np.flatnonzero(overlaps(fused[candidates], fused_area[candidates],
                                           coords[b], area[b]) > params.iou_threshold)
            if hit.size:
                first = hit[np.concatenate(([True], owner[hit[1:]] != owner[hit[:-1]]))]
                target[owner[first]] = candidates[first]
        n_clusters[group[target == start[group] + k]] += 1
        slot[box] = target
        wsum[target] += w[box]
        wcoords[target] += w[box, None] * coords[box]
        csum[target] += coords[box]
        size[target] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            fused[target] = np.where(wsum[target, None] > 0.0,
                                     wcoords[target] / wsum[target, None],
                                     csum[target] / size[target, None])
        fused_area[target] = areas(fused[target])

    used = np.flatnonzero(size)
    t = size[used]
    image = boxes.image_codes[order][used]
    score = wsum[used] / t
    if params.score_mode == "rescale":
        n_models = params.num_models if params.num_models is not None else observed[image]
        score = score * (np.minimum(t, n_models) / n_models)
    score = _clip01(score)
    rank = np.lexsort((-score, image))
    out = used[rank]

    n_models = len(boxes.model_names)
    members = unique_sorted(slot.astype(np.int64) * n_models + boxes.model_codes[order])
    per_slot = np.bincount(members // n_models, minlength=n)
    first_member = np.concatenate(([0], np.cumsum(per_slot)[:-1]))
    counts = per_slot[out]
    return FusedDetections(
        fused[out], score[rank], boxes.category_ids[order][out], image[rank],
        boxes.image_names, t[rank], np.concatenate(([0], np.cumsum(counts))),
        (members % n_models)[ranges(first_member[out], counts)], boxes.model_names)

def spoc_ref(values):
    c, h, w = values.shape
    out = []
    for ci in range(c):
        total = 0.0
        for yi in range(h):
            for xi in range(w):
                total += values[ci, yi, xi]
        out.append(total / (h * w))
    return np.array(out)


def mac_ref(values):
    c, h, w = values.shape
    out = []
    for ci in range(c):
        best = -math.inf
        for yi in range(h):
            for xi in range(w):
                best = max(best, values[ci, yi, xi])
        out.append(best)
    return np.array(out)


def gem_ref(values, p):
    c, h, w = values.shape
    out = []
    for ci in range(c):
        total = 0.0
        for yi in range(h):
            for xi in range(w):
                total += values[ci, yi, xi] ** p
        out.append((total / (h * w)) ** (1.0 / p))
    return np.array(out)


def combine_ref(values, specs):
    """specs: list of (kind, p) tuples."""
    parts = []
    for kind, p in specs:
        if kind == "spoc":
            v = spoc_ref(values)
        elif kind == "mac":
            v = mac_ref(values)
        else:
            v = gem_ref(values, p)
        parts.append(v / np.sqrt(np.sum(v * v)))
    combined = np.concatenate(parts)
    return combined / np.sqrt(np.sum(combined * combined))


def knn_ref(gallery_rows, gallery_ids, query, k):
    """Quadratic per-query scan: dot products, then sort by (-score, id)."""
    scored = []
    for row, gid in zip(gallery_rows, gallery_ids):
        s = float(np.dot(row, query))
        s = max(-1.0, min(1.0, s))
        scored.append((gid, s))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def expand_ref(vec, neighbors, sims, alpha):
    """neighbors: list of vectors, sims: their cosines with vec."""
    acc = vec.astype(float).copy()
    for nv, s in zip(neighbors, sims):
        acc = acc + (max(s, 0.0) ** alpha) * nv
    return acc / np.sqrt(np.sum(acc * acc))


def rerank_ref(queries, gallery, initial_ids, k1, k2, lam):
    """From-definition k-reciprocal re-ranking.

    queries/gallery: 2-D arrays of unit rows; initial_ids: per query, the
    ordered list of gallery row indices to re-rank.  Returns, per query,
    the list of (gallery_row, d_star) sorted ascending by d_star with ties
    by gallery row order in `tiebreak_ids` (caller sorts by id afterwards).
    """
    pts = np.vstack([queries, gallery])
    n = pts.shape[0]
    nq = queries.shape[0]
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = float(np.dot(pts[i], pts[j]))
            s = max(-1.0, min(1.0, s))
            dist[i][j] = 0.0 if i == j else 1.0 - s

    def neighbor_list(i):
        others = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i][j], j))
        return [i] + others

    order = [neighbor_list(i) for i in range(n)]

    def reciprocal(i, k):
        fwd = set(order[i][: k + 1])
        return {j for j in fwd if i in set(order[j][: k + 1])}

    k_half = int(round(k1 / 2))
    r_full = [reciprocal(i, k1) for i in range(n)]
    r_half = [reciprocal(i, k_half) for i in range(n)]

    encoded = []
    for i in range(n):
        expanded = set(r_full[i])
        for c in r_full[i]:
            if len(r_half[c] & r_full[i]) >= (2.0 / 3.0) * len(r_half[c]):
                expanded |= r_half[c]
        vec = [0.0] * n
        total = sum(math.exp(-dist[i][j]) for j in expanded)
        for j in expanded:
            vec[j] = math.exp(-dist[i][j]) / total
        encoded.append(vec)

    smoothed = []
    for i in range(n):
        near = order[i][:k2]
        smoothed.append([sum(encoded[j][col] for j in near) / len(near) for col in range(n)])

    results = []
    for qi in range(nq):
        out = []
        for g in initial_ids[qi]:
            j = nq + g
            minsum = sum(min(a, b) for a, b in zip(smoothed[qi], smoothed[j]))
            maxsum = sum(max(a, b) for a, b in zip(smoothed[qi], smoothed[j]))
            jac = 1.0 - minsum / maxsum if maxsum > 0 else 1.0
            out.append((g, (1.0 - lam) * jac + lam * dist[qi][j]))
        results.append(out)
    return results


def expanded_sets_ref(neighbors, k1):
    """R*(p) for every point p, as (p, member) pairs sorted by p, then
    member, from neighbor lists that start with each point itself; every
    pair test is one np.isin over all points."""
    n = neighbors.shape[0]
    own = np.arange(n)[:, None]

    def reciprocal(k):
        head = neighbors[:, : k + 1]
        return np.isin(head * n + own, own * n + head)

    k_half = int(round(k1 / 2))
    full, half = reciprocal(k1), reciprocal(k_half)
    p = np.nonzero(full)[0]
    c = neighbors[full]
    members = neighbors[c, : k_half + 1]
    in_half = half[c]
    in_full = np.isin(p[:, None] * n + members, p * n + c)
    shared = np.count_nonzero(in_half & in_full, axis=1)
    accept = shared * 3 >= np.count_nonzero(half, axis=1)[c] * 2
    extra = (p[accept, None] * n + members[accept])[in_half[accept]]
    keys = np.unique(np.concatenate([p * n + c, extra]))
    return keys // n, keys % n


def encodings_ref(points, neighbors, k1, k2):
    """V after local expansion in CSR form, (indptr, columns, values), with
    every point's gathered V entries in one array and one np.unique."""
    n = points.shape[0]
    rows, cols = expanded_sets_ref(neighbors, k1)
    dist = 1.0 - pair_scores(points, rows, points, cols)
    dist[rows == cols] = 0.0
    weights = np.exp(-dist)
    values = weights / np.bincount(rows, weights=weights, minlength=n)[rows]
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    near = neighbors[:, :k2].ravel()
    src = np.concatenate([np.arange(indptr[c], indptr[c + 1]) for c in near])
    keys = np.repeat(np.repeat(np.arange(n), k2), counts[near]) * n + cols[src]
    unique, slot = np.unique(keys, return_inverse=True)
    # bincount adds in array order: each sum runs in neighbor order
    smoothed = np.bincount(slot, weights=values[src]) / k2
    indptr = np.concatenate([[0], np.cumsum(np.bincount(unique // n, minlength=n))])
    return indptr, unique % n, smoothed


def ap_101_ref(matches, n_gt):
    """matches: TP/FP flags of canonically sorted predictions; explicit
    envelope computation at each of the 101 recall levels."""
    if n_gt == 0:
        return 0.0
    points = []
    tp = fp = 0
    for is_tp in matches:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for level in [i / 100.0 for i in range(101)]:
        best = 0.0
        for recall, precision in points:
            if recall >= level:
                best = max(best, precision)
        total += best
    return total / 101.0


def detection_ap_ref(preds, gt_by_image, thresholds):
    """preds: dicts with image_id, category_id, score, box, model_id;
    gt_by_image: image -> list of (box, category).  Mirrors the published
    matching definition with fresh code."""
    cats = {c for boxes in gt_by_image.values() for _, c in boxes}
    cats |= {p["category_id"] for p in preds}
    per_cat = {}
    ap50s, ap75s = [], []
    for cat in sorted(cats):
        cat_preds = sorted(
            (p for p in preds if p["category_id"] == cat),
            key=lambda p: (-p["score"], p["image_id"], p["box"][0], p["box"][1],
                           p["box"][2], p["box"][3], p["model_id"]),
        )
        gts = {img: [b for b, c in boxes if c == cat]
               for img, boxes in gt_by_image.items()}
        n_gt = sum(len(v) for v in gts.values())
        aps = []
        for t in thresholds:
            used = {img: [False] * len(v) for img, v in gts.items()}
            flags = []
            for p in cat_preds:
                best, best_v = -1, -1.0
                for j, g in enumerate(gts.get(p["image_id"], [])):
                    if used[p["image_id"]][j]:
                        continue
                    v = iou_ref(p["box"], g)
                    if v >= t and v > best_v:
                        best, best_v = j, v
                if best >= 0:
                    used[p["image_id"]][best] = True
                    flags.append(True)
                else:
                    flags.append(False)
            aps.append(ap_101_ref(flags, n_gt))
        per_cat[cat] = sum(aps) / len(aps)
        for t, v in zip(thresholds, aps):
            if abs(t - 0.5) < 1e-9:
                ap50s.append(v)
            if abs(t - 0.75) < 1e-9:
                ap75s.append(v)
    mean_ap = sum(per_cat.values()) / len(per_cat) if per_cat else 0.0
    ap50 = sum(ap50s) / len(ap50s) if ap50s else None
    ap75 = sum(ap75s) / len(ap75s) if ap75s else None
    return mean_ap, ap50, ap75, per_cat


def _synth_rng(seed, purpose, index=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, purpose, index))))


def synth_layout_ref(spec):
    """(item_index, image_id, box_id, box, category_id) per planted object:
    the generator's layout drawn one scalar at a time, as first written."""
    rng = _synth_rng(spec.seed, 0)
    objects = []
    for i in range(spec.num_images):
        image_id = f"img{i:05d}"
        for b in range(spec.gt_boxes_per_image):
            w = rng.uniform(80.0, 240.0)
            h = rng.uniform(80.0, 240.0)
            x1 = rng.uniform(0.0, 640.0 - w)
            y1 = rng.uniform(0.0, 640.0 - h)
            category = int(rng.integers(1, spec.num_categories + 1))
            objects.append((len(objects), image_id, f"{image_id}:b{b}",
                            (x1, y1, x1 + w, y1 + h), category))
    return objects


def synth_detections_ref(spec, objects, detector):
    """(x1, y1, x2, y2, score, category_id, image_id, model_id) per row of
    one detector's view of `objects` (anything with image_id, box and
    category_id), drawn one scalar at a time, as first written."""
    rng = _synth_rng(spec.seed, 1, detector)
    rows = []
    by_image = {}
    for obj in objects:
        by_image.setdefault(obj.image_id, []).append(obj)
    for image_id in sorted(by_image):
        for obj in by_image[image_id]:
            if rng.random() < spec.miss_rate:
                continue
            score = min(1.0, max(0.0, 1.0 - abs(rng.normal(0.0, spec.score_sigma))))
            x1, y1, x2, y2 = (c + rng.normal(0.0, spec.jitter_sigma)
                              if spec.jitter_sigma > 0 else c for c in obj.box)
            x1, x2 = sorted((x1, x2))
            y1, y2 = sorted((y1, y2))
            if x2 - x1 < 1.0:
                x2 = x1 + 1.0
            if y2 - y1 < 1.0:
                y2 = y1 + 1.0
            rows.append((x1, y1, x2, y2, score, obj.category_id, image_id, f"det{detector}"))
        for _ in range(int(rng.binomial(spec.gt_boxes_per_image, spec.fp_rate))):
            w = rng.uniform(80.0, 240.0)
            h = rng.uniform(80.0, 240.0)
            x1 = rng.uniform(0.0, 640.0 - w)
            y1 = rng.uniform(0.0, 640.0 - h)
            score = rng.uniform(0.2, 0.7)
            category = int(rng.integers(1, spec.num_categories + 1))
            rows.append((x1, y1, x1 + w, y1 + h, score, category, image_id, f"det{detector}"))
    return rows
