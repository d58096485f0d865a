"""Linear attention with exact cosine re-weighting, plus its oracles.

The quadratic references in `core` define what every linear path must
reproduce; `linear` holds the O(n) forwards behind one config-driven
`attend`, `grad` their analytic backwards behind `attend_backward`, and
the remaining modules wrap them in checks, benchmarks, visualization,
and a toy trainer.
"""

from .bench import BenchmarkRecord, run_benchmark, transient_scalars, write_benchmark_csv
from .core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    AttentionDims,
    FeatureMapKind,
    ReweightScheme,
    apply_feature_map,
    attention_weights_quadratic,
    cosine_reweight,
    kernel_attention_quadratic,
    leaky_relu,
    require_matrix,
    softmax_attention,
)
from .equivalence import (
    MUTATIONS,
    VARIANTS,
    Report,
    VariantResult,
    equivalence_trial,
    run_equivalence_suite,
    threshold_for,
)
from .errors import (
    ConfigurationError,
    CosattnError,
    DimensionError,
    MatrixParseError,
)
from .grad import (
    attend_backward,
    cosformer_backward,
    feature_map_derivative,
    finite_diff_grad,
    linear_attention_backward,
    softmax_attention_backward,
)
from .linear import (
    CausalState,
    attend,
    causal_state_init,
    causal_state_step,
    cosformer_attention,
    linear_attention,
)
from .matio import matrix_text, read_matrix, read_pgm, write_matrix, write_pgm
from .reweight import (
    build_reweight_matrix,
    cos_weight,
    decompose,
    position_angles,
    position_factors,
)
from .train import (
    BlockParams,
    TrainReport,
    init_toy_params,
    sinusoidal_encoding,
    train_copy_task,
    transformer_block_forward,
)
from .viz import CoverageMatrix, visualize_attention

__all__ = [
    "AttentionConfig",
    "AttentionDims",
    "BenchmarkRecord",
    "BlockParams",
    "CausalState",
    "ConfigurationError",
    "CosattnError",
    "CoverageMatrix",
    "DimensionError",
    "ELU_PLUS_ONE",
    "FeatureMapKind",
    "IDENTITY",
    "MatrixParseError",
    "MUTATIONS",
    "RELU",
    "Report",
    "ReweightScheme",
    "TrainReport",
    "VARIANTS",
    "VariantResult",
    "apply_feature_map",
    "attend",
    "attend_backward",
    "attention_weights_quadratic",
    "build_reweight_matrix",
    "causal_state_init",
    "causal_state_step",
    "cos_weight",
    "cosformer_attention",
    "cosformer_backward",
    "cosine_reweight",
    "decompose",
    "equivalence_trial",
    "feature_map_derivative",
    "finite_diff_grad",
    "init_toy_params",
    "kernel_attention_quadratic",
    "leaky_relu",
    "linear_attention",
    "linear_attention_backward",
    "matrix_text",
    "position_angles",
    "position_factors",
    "read_matrix",
    "read_pgm",
    "require_matrix",
    "run_benchmark",
    "run_equivalence_suite",
    "sinusoidal_encoding",
    "softmax_attention",
    "softmax_attention_backward",
    "threshold_for",
    "train_copy_task",
    "transformer_block_forward",
    "transient_scalars",
    "visualize_attention",
    "write_benchmark_csv",
    "write_matrix",
    "write_pgm",
]
