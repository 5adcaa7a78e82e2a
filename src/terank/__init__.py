"""terank: score and rank pre-trained models for a target dataset from
their feature embeddings, with spread/attract feature perturbation."""

__version__ = "0.1.0"
# the one bulk stream-fill implementation (terank.rng), for environment reports
RNG_BACKEND = "numpy"

from .embeddings import (  # noqa: F401
    EmbeddingSet,
    load_csv,
    load_emb1,
    save_emb1,
)
from .evaluation import (  # noqa: F401
    ImprovementRow,
    ModelRow,
    RankingReport,
    TruthTable,
    improvement_summary,
    load_bundled_truth,
    load_truth,
    rank_and_report,
    weighted_kendall_tau,
)
from .metrics import (  # noqa: F401
    GmmModel,
    MetricId,
    ScoreRecord,
    fit_gmm,
    maximize_evidence,
    score_gbc,
    score_lda,
    score_logme,
    score_metric,
    score_model,
    score_nleep,
)
from .perturbation import (  # noqa: F401
    AttractDirection,
    ClassGeometry,
    PerturbConfig,
    PerturbMode,
    attract,
    class_geometry,
    class_radius,
    sa_perturb,
    spread,
)
from .reduction import PcaModel, fit_pca, transform  # noqa: F401
from .rng import SplitMix64  # noqa: F401
from .synth import (  # noqa: F401
    ZooConfig,
    gen_class_gaussians,
    gen_model_zoo,
    gen_zoo_model,
    nearest_centroid_accuracy,
)
