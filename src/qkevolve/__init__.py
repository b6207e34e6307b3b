"""qkevolve: evolutionary synthesis of quantum-inspired kernel classifiers."""

from .genome import (
    CircuitGenome,
    EncodingMode,
    GateGene,
    GateKind,
    decode_gate,
    decode_genome,
    encode_genome,
    genome_length,
)
from .circuit import FeatureMapCircuit, build_feature_map, complexity, evaluate_states
from .svm import SvmConfig, TrainedQSVM, accuracy, fit, predict
from .reduce import (
    FeatureMatrix,
    PcaModel,
    StandardizationParams,
    load_external_features,
    pca_fit,
    pca_slice,
    pca_transform,
    standardize_apply,
    standardize_fit,
    stratified_split,
)
from .evolve import (
    EvalData,
    FitnessPair,
    GaConfig,
    Individual,
    dominates,
    evaluate_fitness,
    flipbit_mutation,
    nsga2_select,
    objective_balance,
    run,
    two_point_crossover,
)

__version__ = "0.1.0"
