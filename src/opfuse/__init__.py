"""opfuse: opinion-graph fusion for emotion classification.

Builds one typed sub-graph per opinion annotation (holder / sentiment /
target / aspect / qualifier spans with polarity edges), runs multi-head
GATv2 message passing over it, and fuses the aggregated graph features
into a sequence-encoder classifier.  Ships with a full evaluation and
paired-significance harness.
"""

from .autodiff import (Gradients, NonFiniteError, NumericsError, ShapeError,
                       Tape, Tensor)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (EMOTIONS, POLARITIES, Corpus, CorpusError, LabelMap,
                   LabelMapError, OpinionAnnotation, Record, Span,
                   default_label_map, load_corpus, load_label_map,
                   validate_distribution)
from .encoder import EncoderError, EncoderOutput, FileEncoder, ToyEncoder, tokenize
from .evaluation import (EvalReport, EvaluationError, Prediction, aggregate,
                         f1_report, macro_f1, read_predictions,
                         write_predictions)
from .fusion import FusionParams, fuse, residual
from .gat import GatParams, aggregate_sentences, gat_layer, readout
from .graphs import (STAR_TOPOLOGY, GraphEmpty, OpinionGraph, PackedGraphs,
                     build_structure, build_subgraph)
from .model import ConfigError, ModelConfig, OpinionFusionModel
from .optim import Adam
from .stats import (McNemarResult, StuartMaxwellResult, chi_square_sf, mcnemar,
                    pair_predictions, stuart_maxwell, stuart_maxwell_table)
from .train import TrainingError, TrainResult, train_model

__version__ = "0.1.0"
