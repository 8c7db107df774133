"""Differentiable architecture search for speech emotion recognition.

The package is layered bottom-up: a numpy reverse-mode autodiff engine
(tensor, optim), a catalog of candidate operations (ops), weight-sharing
cells and the supernet (cell, supernet), the bilevel search loop (search),
genome extraction and serialization (genome), derived-model training
(derived), the audio feature pipeline and synthetic corpus (features), the
cross-validation evaluation harness (harness), and a command-line front
end (cli). Every file write goes through one module (artifacts).
"""

from .errors import (ContractViolation, DataError, EmodartsError,
                     GraphReuseError, NumericFault)
from .tensor import (Tensor, as_tensor, avg_pool2d, batch_norm, concat,
                     conv2d, cross_entropy, dropout, finite_diff_grad,
                     max_pool2d, relu, softmax, tanh)
from .optim import SGD, Adam, CosineSchedule, clip_grad_norm, cosine_lr
from .ops import CNN_OPS, SEQNN_OPS, Module, count_params
from .cell import Cell, MixedEdge, augment_scope, discretize_edge, num_edges
from .config import SearchConfig
from .supernet import (Backbone, Supernet, build_supernet, flatten_bridge,
                       reduction_positions)
from .metrics import ua, wa
from .search import (HISTORY_COLUMNS, EpochStats, alpha_entropy, search,
                     write_history_csv)
from .genome import (GENOME_VERSION, Genome, deserialize, detect_degenerate,
                     export_dot, extract_genome, serialize)
from .derived import (DerivedModel, evaluate, instantiate, load_checkpoint,
                      save_checkpoint, train_derived, write_train_csv)
from .features import (Dataset, load_edset, load_wav, mel_filterbank, mfcc,
                       pad_or_truncate, pool_downsample, save_edset,
                       synth_dataset)
from .harness import (BASELINE_KINDS, SCOPE_OPS, STUDY_SCOPES, Baseline,
                      FoldResult, FoldSplit, run_fold, speaker_cv_split,
                      stratified_split, study, write_results_csv,
                      write_scatter_csv)

__version__ = "0.1.0"
