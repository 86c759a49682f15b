"""Fusing boxes from multiple detectors.

Two detectors look at the same image. Detector A is confident but sloppy
about the jacket; detector B is precise but timid, and it also hallucinates
a box in the corner. NMS keeps one winner per overlap group; weighted
fusion averages the evidence instead and demotes boxes only one model saw.
"""

from cbirkit import Detections, WbfParams, fuse_detections, iou, nms

# one row per box: detector A's jacket, detector B's jacket, B's ghost
dets = Detections.from_columns(
    [(100, 80, 300, 380), (112, 90, 308, 395), (500, 500, 590, 600)],
    scores=[0.92, 0.71, 0.64], category_ids=[1, 1, 1],
    image_ids=["street"] * 3, model_ids=["det_a", "det_b", "det_b"])
jacket_a, jacket_b, ghost_b = dets.coords.tolist()  # a table is columns

print("IoU of the two jacket boxes:", round(iou(jacket_a, jacket_b), 3))

kept = nms(dets, iou_threshold=0.5)
print("\nNMS keeps", len(kept), "boxes:")
for box, score, model in zip(kept.coords.tolist(), kept.scores, kept.model_codes):
    print(f"  {kept.model_names[model]}  score={score:.2f}  {tuple(box)}")

# fusion with two models: the ghost seen by one of two models is halved
fused = fuse_detections(dets, WbfParams(iou_threshold=0.55))
print("\nWeighted fusion yields", len(fused), "boxes:")
for i, box in enumerate(fused.coords.tolist()):
    # cluster i's models are the codes between two offsets of model_indptr
    members = fused.model_codes[fused.model_indptr[i]:fused.model_indptr[i + 1]]
    coords = tuple(round(c, 1) for c in box)
    print(f"  score={fused.scores[i]:.3f}  members={fused.cluster_sizes[i]}  "
          f"models={[fused.model_names[c] for c in members]}  {coords}")

# trusting detector A twice as much shifts the fused coordinates its way
jackets = Detections.from_columns(dets.coords[:2], dets.scores[:2], [1, 1],
                                  ["street"] * 2, ["det_a", "det_b"])
weighted = fuse_detections(
    jackets, WbfParams(model_weights={"det_a": 2.0, "det_b": 1.0}, num_models=2))
print("\nWith det_a weighted 2x the fused jacket is",
      tuple(round(c, 1) for c in weighted.coords[0].tolist()))
