"""Command-line entry point.

Commands: train, eval, gradcheck, synth, export-embeddings.
Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure (a gradcheck that does not meet tolerance).
"""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .blobio import parse_bool
from .checkpoint import load_checkpoint
from .config import load_config, with_overrides
from .data import DatasetManifest, generate, load_dataset, save_dataset
from .evaluate import evaluate_retrieval, metrics_json, write_embeddings_csv
from .gradcheck import gradcheck_all
from .training import Trainer


def cmd_train(args) -> int:
    config = with_overrides(load_config(args.config), seed=args.seed, out_dir=args.out)
    trainer = Trainer(config)
    rows = trainer.run()
    final = rows[-1] if rows else None
    print(f"trained {trainer.step} steps; output in {config.out_dir}")
    if final is not None:
        print(f"final total loss {final[-1]!r}")
    print(f"loss log: {os.path.join(config.out_dir, 'loss_log.csv')}")
    print(f"checkpoint: {os.path.join(config.out_dir, 'ckpt_final')}")
    return 0


def cmd_eval(args) -> int:
    model, _, _, meta = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    alpha = args.alpha if args.alpha is not None else meta.parse("eval.alpha", float)
    use_flip = (args.flip == "true" if args.flip is not None
                else meta.parse("eval.flip", parse_bool))
    result, _, _ = evaluate_retrieval(dataset, model, alpha=alpha, use_flip=use_flip)
    print(metrics_json(result, alpha))
    return 0


def cmd_gradcheck(args) -> int:
    all_passed = True
    for name, report in gradcheck_all(seed=args.seed, tol=args.tol).items():
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: max_rel_error={report.max_rel_error:.6e} "
              f"tol={report.tolerance:g} coords={report.num_coordinates} {status}")
        all_passed &= report.passed
    print(f"gradcheck: {'all 6 losses pass' if all_passed else 'FAILURES detected'}")
    return 0 if all_passed else 2


def cmd_synth(args) -> int:
    for flag, value in (("--ids", args.ids), ("--per-id", args.per_id)):
        if value < 2:
            raise ValueError(f"{flag} must be >= 2, got {value}")
    per_split = args.per_id // 5
    manifest = DatasetManifest(
        num_identities=args.ids,
        samples_per_identity=args.per_id,
        train_per_identity=args.per_id - 2 * per_split,
        query_per_identity=per_split,
        gallery_per_identity=per_split,
        seed=args.seed,
    )
    dataset = generate(manifest)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.labels)} samples "
          f"({len(dataset.train_idx)} train / {len(dataset.query_idx)} query / "
          f"{len(dataset.gallery_idx)} gallery) to {args.out}")
    return 0


def cmd_export_embeddings(args) -> int:
    model, _, _, _ = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    write_embeddings_csv(args.out, np.arange(len(dataset.labels)), dataset.labels,
                         *model.embed(dataset.images)[0][:2])
    print(f"wrote {len(dataset.labels)} embedding rows to {args.out}")
    return 0


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's seeding requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main prints as one ``error:``
    line; a token like "-1e-4" or "-inf" is a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern knows neither exponents nor inf
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf$|nan$)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sirmetric",
        description="Desk-scale metric learning for long-term re-identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a config file")
    p_train.add_argument("--config", required=True, help="run config path")
    p_train.add_argument("--seed", type=_seed, default=None, help="override train.seed")
    p_train.add_argument("--out", default=None, help="override out.dir")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint directory")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--alpha", type=float, default=None,
                        help="fusion weight for pooled backbone features")
    p_eval.add_argument("--flip", choices=("true", "false"), default=None,
                        help="average with horizontally flipped images (true/false)")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all losses")
    p_grad.add_argument("--seed", type=_seed, default=0)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--ids", type=int, required=True, help="number of identities")
    p_synth.add_argument("--per-id", type=int, required=True,
                         help="samples per identity")
    p_synth.add_argument("--seed", type=_seed, required=True)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_export = sub.add_parser("export-embeddings",
                              help="dump separator embeddings to CSV")
    p_export.add_argument("--ckpt", required=True, help="checkpoint directory")
    p_export.add_argument("--data", required=True, help="dataset directory")
    p_export.add_argument("--out", required=True, help="CSV output path")
    p_export.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # usage errors, ConfigError and ArchiveError are ValueErrors; a missing
        # file, a directory where a file belongs (or the reverse) are OSErrors;
        # a size too large for an index or for memory is the last two
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
