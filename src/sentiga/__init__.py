"""Three-class sentiment toolkit for Indonesian social-media text."""

from .corpus import (
    CleanRecord,
    LabelMap,
    RawRecord,
    SentimentClass,
    class_counts,
    default_label_map,
    deduplicate,
    load_raw,
    map_label,
    prepare_corpus,
)
from .errors import SentigaError
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    SplitConfig,
    SplitIndex,
    confusion,
    report,
    run_benchmark,
    stratified_split,
)
from .features import (
    HybridFeatureSpace,
    HybridMatrix,
    Scaler,
    TfidfConfig,
    TfidfModel,
    fit_feature_space,
    fit_scaler,
    fit_tfidf,
    transform_scaler,
)
from .learners import (
    ClassWeights,
    LinearSvmConfig,
    LinearSvmModel,
    LogRegConfig,
    LogRegModel,
    MlpConfig,
    MlpModel,
    balanced_weights,
    predict_proba_logreg,
    predict_proba_mlp,
    train_linear_svm,
    train_logreg,
    train_mlp,
)
from .bundle import ModelBundle, Prediction, load_bundle, predict, save_bundle, train_bundle
from .textnorm import clean_text, count_hashtags

__version__ = "0.1.0"
