"""Command line entry points.

    cbirkit fuse --detections a.jsonl b.jsonl --out fused.jsonl
    cbirkit eval-det --preds fused.jsonl --gt gt.jsonl
    cbirkit search --data all.emb --ids all.ids.jsonl --k 10 --out rankings.tsv
    cbirkit rerank --data all.emb --ids all.ids.jsonl --rankings in.tsv --out out.tsv
    cbirkit eval-ret --rankings rankings.tsv --gt pairs.jsonl --ks 1,10
    cbirkit run --config config.json
    cbirkit gen-synth --spec spec.json --out bench/

Global flags: --seed U64 (overrides the synthetic spec seed), --log-level
LEVEL.  Search, QE, DBA and re-ranking run on the BLAS threads that the
environment sets (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS); results do not
depend on their count.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import io as formats
from .boxes import SCORE_MODES, WbfParams
from .errors import CbirkitError, ConfigError, DataError
from .evaluation import (acc_at_k, check_thresholds, detection_ap, format_detection_report,
                         format_retrieval_report)
from .pipeline import SCHEMA, PipelineConfig, check_json_type, fuse_detections, run_pipeline
from .rerank import RerankParams, k_reciprocal_rerank
from .search import build_index, knn_search
from .synthetic import SyntheticSpec, generate_synthetic


def _parse_ks(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return check_thresholds([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    except DataError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_weights(text: str) -> dict | None:
    try:
        weights = json.loads(text)
        check_json_type(weights, SCHEMA["wbf"]["model_weights"][0], "--weights")
    except (ValueError, ConfigError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return weights


def _cmd_fuse(args) -> int:
    boxes = formats.load_detections(*args.detections)
    params = WbfParams(
        iou_threshold=args.iou_threshold,
        model_weights=args.weights,
        num_models=args.num_models,
        score_mode=args.score_mode,
    )
    fused = fuse_detections(boxes, params)
    formats.save_fused_boxes(fused, args.out)
    print(f"fused {len(boxes)} boxes into {len(fused)} -> {args.out}")
    return 0


def _cmd_eval_det(args) -> int:
    preds = formats.load_detections(args.preds)
    gt = formats.load_detection_gt(args.gt)
    report = detection_ap(preds, gt, args.thresholds)
    print(format_detection_report(report))
    if args.report:
        formats.save_report(report.to_dict(), args.report)
    return 0


def _cmd_search(args) -> int:
    queries, gallery = formats.load_embeddings(args.data, args.ids).split_by_source()
    index = build_index(gallery)
    rankings = knn_search(index, queries, args.k,
                          restrict_to_query_category=args.restrict_category)
    formats.save_rankings(rankings, args.out)
    print(f"searched {queries.n_rows} queries over {gallery.n_rows} gallery rows -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    queries, gallery = formats.load_embeddings(args.data, args.ids).split_by_source()
    initial = formats.load_rankings(args.rankings)
    params = RerankParams(k1=args.k1, k2=args.k2, lam=args.lam)
    rankings = k_reciprocal_rerank(queries, gallery, initial, params)
    formats.save_rankings(rankings, args.out)
    print(f"re-ranked {len(rankings)} queries -> {args.out}")
    return 0


def _cmd_eval_ret(args) -> int:
    if (args.data is None) != (args.ids is None):
        raise ConfigError("--data and --ids must be given together")
    rankings = formats.load_rankings(args.rankings)
    gt = formats.load_retrieval_gt(args.gt)
    gallery_ids = None
    if args.data is not None:
        matrix = formats.load_embeddings(args.data, args.ids)
        gallery_ids = matrix.item_ids[matrix.sources == "gallery"].tolist()
    report = acc_at_k(rankings, gt, args.ks, gallery_ids=gallery_ids)
    print(format_retrieval_report(report))
    if args.report:
        formats.save_report(report.to_dict(), args.report)
    return 0


def _cmd_run(args) -> int:
    config = PipelineConfig.from_file(args.config)
    result = run_pipeline(config)
    if result.detection is not None:
        print(format_detection_report(result.detection))
    print(format_retrieval_report(result.retrieval))
    print(f"rankings -> {result.rankings_path}")
    print(f"report   -> {result.report_path}")
    return 0


def _cmd_gen_synth(args) -> int:
    raw = formats.load_json_object(args.spec)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = SyntheticSpec.from_dict(raw)
    manifest = generate_synthetic(spec, args.out)
    print(f"generated {manifest['num_items']} items in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbirkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the synthetic spec seed")
    parser.add_argument("--log-level", default="WARNING", metavar="LEVEL")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse multi-detector boxes per image")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-threshold", type=float, default=WbfParams.iou_threshold)
    p.add_argument("--weights", type=_parse_weights,
                   help='JSON object: {"model_id": weight, ...}')
    p.add_argument("--num-models", type=int, default=WbfParams.num_models)
    p.add_argument("--score-mode", choices=SCORE_MODES, default=WbfParams.score_mode)
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("eval-det", help="score detections against ground truth")
    p.add_argument("--preds", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--thresholds", type=_parse_thresholds,
                   help="comma-separated IoU thresholds in (0, 1] (default 0.50:0.05:0.95)")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_eval_det)

    p = sub.add_parser("search", help="exact top-K retrieval")
    p.add_argument("--data", required=True)
    p.add_argument("--ids", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--restrict-category", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("rerank", help="k-reciprocal re-ranking of a rankings file")
    p.add_argument("--data", required=True)
    p.add_argument("--ids", required=True)
    p.add_argument("--rankings", required=True)
    p.add_argument("--k1", type=int, default=RerankParams.k1)
    p.add_argument("--k2", type=int, default=RerankParams.k2)
    p.add_argument("--lambda", dest="lam", type=float, default=RerankParams.lam)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_rerank)

    p = sub.add_parser("eval-ret", help="top-K retrieval accuracy")
    p.add_argument("--rankings", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--ks", type=_parse_ks, default="1,10")
    p.add_argument("--data", help="embedding data file (for impossible-query flagging)")
    p.add_argument("--ids", help="embedding ids file (for impossible-query flagging)")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_eval_ret)

    p = sub.add_parser("run", help="run the configured pipeline end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("gen-synth", help="generate a synthetic benchmark")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (CbirkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
