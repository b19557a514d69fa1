"""Model configuration and the assembled opinion-fusion classifier."""

from __future__ import annotations

import logging
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import EMOTIONS, Record, is_finite_number, load_json
from .encoder import FileEncoder, TokenSequence, ToyEncoder
from .evaluation import Prediction
from .fusion import FUSION_TYPES, ClassifierHead, FusionParams, fuse, residual
from .gat import GatParams, aggregate_sentences, gat_layer, readout
from .graphs import ROLES, GraphEmpty, OpinionGraph, PackedGraphs, build_subgraph

log = logging.getLogger(__name__)

ARCHITECTURES = ("fused", "text_only")
BATCH_SIZES = (8, 16, 32, 64)
GAT_OUT_DIMS = (384, 256, 192, 96)
GAT_HEADS = (2, 3, 4, 6, 8)
ALPHA_RES_VALUES = (0.25, 0.5, 0.75, 1.0)
# 0.0 switches the residual off entirely, reducing the fused model to the
# text-only baseline; allowed in configs, never part of the sweep grid.
ALPHA_RES_ALLOWED = (0.0,) + ALPHA_RES_VALUES


class ConfigError(Exception):
    def __init__(self, field_name: str | None, message: str):
        self.field_name = field_name
        super().__init__(message if field_name is None
                         else f"config field '{field_name}': {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> (check, what the field must be).
FIELD_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _check_types(section, prefix: str = "") -> None:
    """Raise ConfigError for the first field whose value has the wrong type."""
    for spec in fields(section):
        value = getattr(section, spec.name)
        if spec.type not in FIELD_KINDS:  # a nested section
            _check_types(value, f"{spec.name}.")
            continue
        check, expected = FIELD_KINDS[spec.type]
        if not check(value):
            raise ConfigError(f"{prefix}{spec.name}",
                              f"must be {expected}, got {type(value).__name__}")


@dataclass
class EncoderConfig:
    provider: str = "toy"          # "toy" | "file"
    width: int = 64
    layers: int = 2
    heads: int = 4
    vocab_buckets: int = 16384
    states_path: str | None = None


@dataclass
class GatConfig:
    out_dim: int = 96
    heads: int = 2
    depth: int = 1
    leaky_slope: float = 0.2
    role_embedding: bool = False


@dataclass
class FusionConfig:
    type: str = "cat"
    alpha_res: float = 0.5


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    patience: int = 5
    weighted_loss: bool = False


@dataclass
class ModelConfig:
    architecture: str = "fused"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    gat: GatConfig = field(default_factory=GatConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def validate(self) -> None:
        _check_types(self)
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.architecture not in ARCHITECTURES:
            raise ConfigError("architecture", f"must be one of {ARCHITECTURES}")
        if self.encoder.provider not in ("toy", "file"):
            raise ConfigError("encoder.provider", "must be 'toy' or 'file'")
        if self.encoder.width <= 0:
            raise ConfigError("encoder.width", "must be positive")
        if self.encoder.provider == "toy":
            if self.encoder.layers < 0:
                raise ConfigError("encoder.layers", "must be >= 0")
            if self.encoder.heads <= 0:
                raise ConfigError("encoder.heads", "must be positive")
            if self.encoder.width % self.encoder.heads != 0:
                raise ConfigError("encoder.heads",
                                  f"must divide width {self.encoder.width}")
            if self.encoder.vocab_buckets <= 0:
                raise ConfigError("encoder.vocab_buckets", "must be positive")
        if self.encoder.provider == "file" and not self.encoder.states_path:
            raise ConfigError("encoder.states_path", "required for the file provider")
        if self.optimizer.batch_size not in BATCH_SIZES:
            raise ConfigError("optimizer.batch_size", f"must be one of {BATCH_SIZES}")
        if self.optimizer.epochs < 1:
            raise ConfigError("optimizer.epochs", "must be >= 1")
        if self.optimizer.patience < 1:
            raise ConfigError("optimizer.patience", "must be >= 1")
        if self.optimizer.learning_rate <= 0:
            raise ConfigError("optimizer.learning_rate", "must be positive")
        if self.architecture == "fused":
            if self.fusion.type not in FUSION_TYPES:
                raise ConfigError("fusion.type", f"must be one of {FUSION_TYPES}")
            if self.fusion.alpha_res not in ALPHA_RES_ALLOWED:
                raise ConfigError("fusion.alpha_res",
                                  f"must be one of {ALPHA_RES_ALLOWED}")
            if self.gat.heads not in GAT_HEADS:
                raise ConfigError("gat.heads", f"must be one of {GAT_HEADS}")
            if self.gat.out_dim <= 0:
                raise ConfigError("gat.out_dim", "must be positive")
            if self.encoder.provider == "file" and self.gat.out_dim not in GAT_OUT_DIMS:
                raise ConfigError(
                    "gat.out_dim",
                    f"must be one of {GAT_OUT_DIMS} with the file provider")
            if self.gat.depth < 1:
                raise ConfigError("gat.depth", "must be >= 1")
            if not 0.0 < self.gat.leaky_slope < 1.0:
                raise ConfigError("gat.leaky_slope", "must lie in (0, 1)")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Build and validate a config; fields left out keep their dataclass defaults."""

        def build(section_cls, data: dict, where: str):
            unknown = set(data) - {spec.name for spec in fields(section_cls)}
            if unknown:
                raise ConfigError(where + sorted(unknown)[0], "unknown field")
            values = dict(data)
            for spec in fields(section_cls):
                if spec.name in data and spec.default_factory is not MISSING:  # a section
                    if not isinstance(data[spec.name], dict):
                        raise ConfigError(where + spec.name, "must be an object")
                    values[spec.name] = build(spec.default_factory, data[spec.name],
                                              f"{where}{spec.name}.")
            return section_cls(**values)

        if not isinstance(obj, dict):
            raise ConfigError(None, "config must be a JSON object")
        config = build(cls, obj, "")
        config.validate()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        return cls.from_json(load_json(path, lambda message: ConfigError("file", message)))


def opinion_graphs(records: list[Record],
                   seqs: list[TokenSequence]) -> tuple[list[OpinionGraph], list[int]]:
    """Every opinion graph of the records, and the index of each one's record.

    ``seqs`` holds each record's tokens.  An opinion whose graph is empty
    (``GraphEmpty``) is skipped with a warning.
    """
    graphs, owners = [], []
    for owner, (record, seq) in enumerate(zip(records, seqs)):
        for index in range(len(record.opinions)):
            try:
                graphs.append(build_subgraph(record, index, seq))
            except GraphEmpty as exc:
                # The message, not the exception: a log handler that keeps its
                # records would otherwise keep this forward's frames alive.
                log.warning("skipping opinion graph: %s", str(exc))
                continue
            owners.append(owner)
    return graphs, owners


class OpinionFusionModel:
    """Encoder -> opinion sub-graphs -> GATv2 -> fusion -> classifier.

    With ``architecture == "text_only"`` the graph path is skipped and the
    head applies directly to the pooled text vector; with ``alpha_res == 0``
    the fused path reproduces those logits exactly (nesting property).
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        config.validate()
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        enc = config.encoder
        if enc.provider == "toy":
            self.encoder = ToyEncoder(width=enc.width, layers=enc.layers,
                                      heads=enc.heads, vocab_buckets=enc.vocab_buckets,
                                      rng=rng)
        else:
            self.encoder = FileEncoder(enc.states_path, width=enc.width)

        self.gat_layers: list[GatParams] = []
        self.role_embedding: Tensor | None = None
        self.fusion_params: FusionParams | None = None
        if config.architecture == "fused":
            d_in = enc.width
            for depth in range(config.gat.depth):
                layer = GatParams(d_in=d_in, d_out=config.gat.out_dim,
                                  heads=config.gat.heads,
                                  leaky_slope=config.gat.leaky_slope,
                                  rng=rng, prefix=f"gat.l{depth}")
                self.gat_layers.append(layer)
                d_in = layer.out_width
            if config.gat.role_embedding:
                self.role_embedding = Tensor(
                    0.1 * rng.standard_normal((len(ROLES), enc.width)),
                    requires_grad=True)
            self.fusion_params = FusionParams(
                config.fusion.type, d=enc.width,
                graph_width=self.gat_layers[-1].out_width, rng=rng)
        self.head = ClassifierHead(enc.width, len(EMOTIONS), rng=rng)

    @property
    def graph_width(self) -> int:
        return self.gat_layers[-1].out_width if self.gat_layers else 0

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        params.update(self.encoder.parameters())
        for layer in self.gat_layers:
            params.update(layer.parameters())
        if self.role_embedding is not None:
            params["role_embedding"] = self.role_embedding
        if self.fusion_params is not None:
            params.update(self.fusion_params.parameters())
        params.update(self.head.parameters())
        return params

    def graph_vectors(self, records: list[Record], seqs: list, tokens: Tensor,
                      pooled: Tensor, token_rows: np.ndarray) -> Tensor:
        """Aggregated opinion vectors (len(records), graph_width); zero rows without one.

        ``seqs`` holds each record's tokens and the rest the batch's encoder
        rows, as ``PackedGraphs.pack`` reads them.  Every opinion graph of
        the batch goes through GAT as one packed union; the last layer hands
        ``readout`` its readout shares, not per-node states.
        """
        graphs, owners = opinion_graphs(records, seqs)
        if graphs:
            packed = PackedGraphs.pack(graphs, owners, tokens, pooled, token_rows,
                                       self.role_embedding)
            *inner, last = self.gat_layers
            for layer in inner:
                packed = replace(packed, features=gat_layer(packed, layer))
            readouts = readout(gat_layer(packed, last, readout_shares=True), packed, last)
        else:
            readouts = ad.zeros((0, self.graph_width))
        return aggregate_sentences(readouts, owners, len(records), self.graph_width)[0]

    def _logits(self, records: list[Record]) -> Tensor:
        """Class logits (len(records), C); everything after the encoder runs once per call."""
        batch = self.encoder.encode_batch(records)
        if self.config.architecture == "text_only":
            return self.head(batch.pooled)
        graph_vecs = self.graph_vectors(records, batch.seqs, batch.hidden, batch.pooled,
                                        batch.token_rows)
        h_graph = self.fusion_params.project_graph(graph_vecs)
        h_fused = fuse(batch.pooled, h_graph, batch.hidden, self.fusion_params,
                       batch.token_rows)
        return self.head(residual(batch.pooled, h_fused, self.config.fusion.alpha_res))

    def forward_batch(self, records: list[Record]) -> Tensor:
        if not records:
            raise ad.ShapeError("forward_batch needs at least one record")
        return self._logits(records)

    def predict(self, records: list[Record]) -> list[Prediction]:
        """Greedy predictions without tape recording, one minibatch at a time."""
        out = []
        step = self.config.optimizer.batch_size
        for start in range(0, len(records), step):
            chunk = records[start:start + step]
            for record, logits in zip(chunk, self._logits(chunk).data):
                out.append(Prediction(id=record.id, gold=record.emotion,
                                      pred=EMOTIONS[int(np.argmax(logits))],
                                      logits=tuple(float(x) for x in logits)))
        return out
