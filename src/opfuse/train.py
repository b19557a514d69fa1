"""Minibatch training with dev-set model selection and early stopping."""

from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import NumericsError, Tape, cross_entropy
from .checkpoint import restore_into, save_checkpoint
from .data import EMOTIONS, Corpus
from .evaluation import Prediction, macro_f1, write_predictions
from .model import ModelConfig, OpinionFusionModel
from .optim import Adam

log = logging.getLogger(__name__)


class TrainingError(Exception):
    pass


def _keep_freed_heap() -> None:
    """Make glibc keep freed memory in the heap for the next training step.

    Each step allocates and frees the same wide arrays.  By default glibc
    serves large ones with fresh ``mmap``s and trims the heap after frees,
    so every step faults its whole working set in again.  This serves
    arrays up to 32 MiB (glibc's 64-bit maximum) from the heap and trims
    only past 1 GiB free.  It sets process-wide state and does nothing
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


@dataclass
class EpochStats:
    epoch: int
    loss: float
    dev_macro_f1: float


@dataclass
class TrainResult:
    model: OpinionFusionModel
    log_rows: list[EpochStats]
    best_epoch: int
    best_dev_f1: float
    dev_predictions: list[Prediction]

    def log_csv(self) -> str:
        lines = ["epoch,loss,dev_macro_f1"]
        for row in self.log_rows:
            lines.append(f"{row.epoch},{row.loss!r},{row.dev_macro_f1!r}")
        return "\n".join(lines) + "\n"


def class_weights_from(records) -> list[float]:
    """Inverse-frequency weights, normalized so a balanced corpus gives 1.0."""
    counts = {label: 0 for label in EMOTIONS}
    for record in records:
        counts[record.emotion] += 1
    total = sum(counts.values())
    n_present = sum(1 for v in counts.values() if v > 0)
    return [total / (n_present * counts[label]) if counts[label] else 0.0
            for label in EMOTIONS]


def train_model(config: ModelConfig, corpus: Corpus,
                out_dir: str | Path | None = None) -> TrainResult:
    """Train per the config; keeps the best-dev checkpoint.

    Dev is predicted once at the end of each epoch.  The returned model
    holds the parameters of the epoch with the best dev macro-F1, and
    ``dev_predictions`` are that epoch's predictions, kept from the end of
    that epoch rather than made again after training.  With ``out_dir``
    set, writes ``checkpoint.bin``, ``training_log.csv`` and
    ``dev_predictions.jsonl`` there.  Fixed config + seed reproduces the
    three files byte for byte.  The best epoch's parameters are copied when
    a later epoch may still run, since optimizer steps change parameter
    buffers in place, and copied back only if a later epoch ran.

    Under glibc, training keeps freed heap for reuse by later steps rather
    than giving it back to the OS, so the process's RSS does not fall
    between steps, nor after this returns.  There is no setting for this.
    """
    config.validate()
    _keep_freed_heap()
    train_records = corpus.split("train")
    dev_records = corpus.split("dev")
    if not train_records:
        raise TrainingError("corpus has no train split")
    if not dev_records:
        raise TrainingError("corpus has no dev split")

    rng = np.random.default_rng(config.seed)
    model_rng, shuffle_rng = rng.spawn(2)
    model = OpinionFusionModel(config, rng=model_rng)
    params = model.parameters()
    optimizer = Adam(params, lr=config.optimizer.learning_rate)
    weights = (class_weights_from(train_records)
               if config.optimizer.weighted_loss else None)
    label_index = {label: i for i, label in enumerate(EMOTIONS)}

    best_state: dict[str, np.ndarray] | None = None
    best_predictions: list[Prediction] = []
    best_f1 = -1.0
    best_epoch = -1
    rows: list[EpochStats] = []
    batch_size = config.optimizer.batch_size

    for epoch in range(1, config.optimizer.epochs + 1):
        order = shuffle_rng.permutation(len(train_records))
        total_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), batch_size), start=1):
            batch = [train_records[i] for i in order[start:start + batch_size]]
            labels = [label_index[r.emotion] for r in batch]
            try:
                with Tape() as tape:
                    logits = model.forward_batch(batch)
                    loss = cross_entropy(logits, labels, class_weights=weights)
                grads = tape.backward(loss)
                optimizer.step(grads)
            except NumericsError as exc:
                raise TrainingError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            total_loss += loss.item() * len(batch)
        epoch_loss = total_loss / len(train_records)

        try:
            dev_predictions = model.predict(dev_records)
        except NumericsError as exc:
            raise TrainingError(f"epoch {epoch}, dev predict: {exc}") from exc
        dev_f1 = macro_f1(dev_predictions)
        rows.append(EpochStats(epoch=epoch, loss=epoch_loss, dev_macro_f1=dev_f1))
        log.info("epoch %d: loss %.5f dev macro-F1 %.3f", epoch, epoch_loss, dev_f1)

        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_epoch = epoch
            best_predictions = dev_predictions
            # Optimizer steps write every parameter in place, so only a copy
            # keeps this epoch's values; the last epoch has no later steps.
            best_state = ({name: p.data.copy() for name, p in params.items()}
                          if epoch < config.optimizer.epochs else None)
        elif epoch - best_epoch >= config.optimizer.patience:
            log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
            break

    if best_epoch < rows[-1].epoch:
        # Prediction takes no randomness, so the kept predictions are the
        # ones the restored parameters would make.
        assert best_state is not None
        restore_into(params, best_state)

    result = TrainResult(model=model, log_rows=rows, best_epoch=best_epoch,
                         best_dev_f1=best_f1, dev_predictions=best_predictions)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "checkpoint.bin", params)
        (out / "training_log.csv").write_text(result.log_csv(), encoding="utf-8")
        write_predictions(out / "dev_predictions.jsonl", best_predictions)
    return result
