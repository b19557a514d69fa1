"""Command-line interface.

Commands raise their readers' and trainers' exceptions unchanged; ``main``
alone turns them into an exit code and a message on stderr:

* 0: success.
* 1: a file could not be opened, read or written (``OSError``), a
  checkpoint is corrupt (``CheckpointError``) or memory could not be
  allocated (``MemoryError``, say for a config's sizes); one line
  ``error: cannot read or write <file>: <reason>``, or
  ``error: <message>`` when the error names no file.
* 2: input was read but is invalid (config, corpus, predictions, label
  map, sweep space, encoder states, or a non-finite value during
  training or its dev predicts); one line ``error: <message>``.  A corpus lists every issue:
  ``error: corpus validation failed:`` and then one indented line per issue.

``aggregate`` is ``eval`` with a required ``--map`` and an optional
``--remapped`` output.  Whatever a command prints to stdout is also
written verbatim to ``--out`` when given; human tables that accompany
JSON payloads go to stderr.  Log verbosity comes from the OPFUSE_LOG
environment variable (error, info, debug); Python warnings go to the log.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoint import CheckpointError
from .data import (CorpusError, LabelMapError, load_corpus, resolve_label_map,
                   validate_distribution)
from .encoder import EncoderError, tokenize
from .evaluation import (EvaluationError, aggregate, f1_report,
                         read_predictions, write_predictions)
from .graphs import structure_to_json
from .model import ConfigError, ModelConfig, opinion_graphs
from .stats import mcnemar, pair_predictions, stuart_maxwell
from .sweep import SweepError, load_space, run_sweep, sweep_csv
from .train import TrainingError, train_model

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2


class CliFailure(Exception):
    """A command's own check of otherwise valid input failed (exit 2)."""


def _setup_logging() -> None:
    level_name = os.environ.get("OPFUSE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown OPFUSE_LOG level {level_name!r}; using error",
              file=sys.stderr)
        level_name = "error"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")
    # numpy's overflow warnings go to the log, so a failure stays one line.
    logging.captureWarnings(True)


def _emit(payload: str, out_path: str | None) -> None:
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")
        payload += "\n"
    if out_path:
        Path(out_path).write_text(payload, encoding="utf-8")


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.data)
    if not corpus.records:
        _emit("0 records", args.out)
        return EXIT_OK
    # The report's first line is the split sizes.
    _emit(validate_distribution(corpus).to_text(), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    corpus = load_corpus(args.data)
    if not corpus.records:
        raise CliFailure("cannot compute statistics for an empty corpus")
    report = validate_distribution(corpus)
    _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    print(report.to_text(), file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    config = ModelConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    corpus = load_corpus(args.data)
    result = train_model(config, corpus, out_dir=args.out)
    summary = {
        "best_epoch": result.best_epoch,
        "best_dev_macro_f1": result.best_dev_f1,
        "epochs_run": len(result.log_rows),
        "seed": config.seed,
    }
    payload = json.dumps(summary, indent=2, sort_keys=True)
    sys.stdout.write(payload + "\n")
    Path(args.out, "summary.json").write_text(payload + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Score predictions; with ``--map``, first remap both labels onto its groups."""
    preds = read_predictions(args.pred)
    if args.map:
        label_map = resolve_label_map(args.map)
        remapped, report = aggregate(preds, label_map)
        taxonomy = label_map.name
    else:
        remapped, report, taxonomy = preds, f1_report(preds), "emotion12"
    _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    print(report.to_text(), file=sys.stderr)
    if args.remapped:
        write_predictions(args.remapped, remapped)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("taxonomy", "label", "f1"))
            writer.writerows(report.to_csv_rows(taxonomy))
    return EXIT_OK


def cmd_compare(args) -> int:
    paired = pair_predictions(read_predictions(args.pred_a), read_predictions(args.pred_b))
    mcn = mcnemar(paired)
    sm = stuart_maxwell(paired)
    result = {"n": len(paired), "mcnemar": mcn.to_json(), "stuart_maxwell": sm.to_json()}
    table = [
        f"{'test':<28}{'statistic':>12}{'df':>5}{'p-value':>14}",
        f"{'McNemar (uncorrected)':<28}{mcn.statistic:>12.4f}{1:>5}{mcn.pvalue:>14.6g}",
        f"{'McNemar (continuity)':<28}{mcn.statistic_corrected:>12.4f}{1:>5}"
        f"{mcn.pvalue_corrected:>14.6g}",
        f"{'McNemar (exact binomial)':<28}{'-':>12}{'-':>5}{mcn.pvalue_exact:>14.6g}",
        f"{'Stuart-Maxwell':<28}{sm.statistic:>12.4f}{sm.df:>5}{sm.pvalue:>14.6g}",
    ]
    payload = json.dumps(result, indent=2, sort_keys=True) + "\n" + "\n".join(table)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = ModelConfig.load(args.config)
    space = load_space(args.space)
    corpus = load_corpus(args.data)
    seed = args.seed if args.seed is not None else base.seed
    trials = run_sweep(base, space, corpus, budget=args.budget, seed=seed, jobs=args.jobs)
    payload = sweep_csv(trials)
    sys.stdout.write(payload)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text(payload, encoding="utf-8")
    return EXIT_OK


def cmd_export_graphs(args) -> int:
    corpus = load_corpus(args.data)
    lines = []
    for record in corpus.records:
        graphs, _ = opinion_graphs([record], [tokenize(record.text)])
        lines.append(json.dumps(structure_to_json(record, [g.structure for g in graphs])))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfuse",
        description="Opinion-graph fusion toolkit: data validation, training, "
                    "evaluation, and model comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus file and report splits")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="per-split label distribution report (JSON)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model and write its artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a prediction file")
    p.add_argument("--pred", required=True)
    p.add_argument("--map", default=None,
                   help="optional label map (ekman6, valence3, or a JSON path)")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="write plot-ready per-class F1 CSV")
    p.set_defaults(func=cmd_eval, remapped=None)

    p = sub.add_parser("aggregate", help="score a prediction file under a label map")
    p.add_argument("--pred", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--remapped", default=None,
                   help="write the remapped predictions to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="paired significance tests for two models")
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="random hyperparameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-graphs", help="emit opinion sub-graph structures as JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_graphs)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as exc:
        message = "corpus validation failed:\n  " + "\n  ".join(exc.issues)
        code = EXIT_VALIDATION
    except (CliFailure, ConfigError, EncoderError, EvaluationError, LabelMapError,
            SweepError, TrainingError) as exc:
        message, code = str(exc), EXIT_VALIDATION
    except (OSError, CheckpointError) as exc:
        filename = getattr(exc, "filename", None)
        message = (str(exc) if filename is None
                   else f"cannot read or write {filename}: {exc.strerror or exc}")
        code = EXIT_IO
    except MemoryError as exc:
        message, code = str(exc) or "out of memory", EXIT_IO
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
