"""Random tensorized sum-product networks.

Build a random region graph, populate it with blocks of sum/product/leaf
nodes, evaluate it exactly in the log domain (including marginal and
conditional queries), and train it end-to-end against a hybrid
generative/discriminative objective with probabilistic dropout.
"""

from .circuit import (
    Circuit,
    ParameterSet,
    construct_circuit,
    count_parameters,
    init_parameters,
    validate_circuit,
)
from .data import (
    Dataset,
    Scaling,
    apply_scaling,
    batch_iterator,
    load_csv,
    load_idx,
    random_missing_mask,
    save_idx,
    scale_features,
    split_dataset,
)
from .errors import (
    DataFormatError,
    InvalidInput,
    ModelVersionError,
    NumericFailure,
    StructureError,
)
from .inference import (
    classify,
    conditional_log,
    empirical_log_prior,
    forward_log,
    log_joint,
    log_marginal_input,
    uniform_log_prior,
)
from .model_io import load_model, model_to_dict, save_model
from .region_graph import RegionGraph, random_region_graph, validate_region_graph
from .synthetic import make_synthetic_classes, make_uniform_noise
from .training import (
    TrainConfig,
    adam_step,
    backward_gradients,
    cross_entropy,
    evaluate_metrics,
    hybrid_objective,
    neg_log_likelihood,
    sample_input_dropout_mask,
    sample_sum_dropout_mask,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
