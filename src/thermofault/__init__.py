"""Thermal-image fault classification for substation equipment.

Regions of radiometric images are summarized by the kernel density
estimate of their pixel temperatures on a fixed grid, then classified
against per-subcategory prototype centers, optionally refined with
unlabeled regions (weak supervision).
"""

from .density import (
    DEFAULT_GRID,
    FeatureGrid,
    KdeEstimator,
    PdfFeature,
    TemperatureHistogram,
    anchored_histogram,
    feature_vector,
    histogram,
    interval_probability,
    kde_at,
    kde_values,
    silverman_bandwidth,
)
from .embedding import (
    Embedder,
    Episode,
    TrainConfig,
    TrainResult,
    embed_many,
    embedder_from_dict,
    embedder_to_dict,
    init_mlp,
    proto_loss,
    train_embedder,
)
from .harness import (
    EvalReport,
    ExperimentConfig,
    RowAccuracy,
    compare,
    compare_table,
    config_hash,
    report_table,
    report_to_dict,
    run_both,
    run_experiment,
    sweep,
    sweep_table,
)
from .images import (
    DatasetManifest,
    InputFormatError,
    ManifestError,
    RegionAnnotation,
    RtmFormatError,
    ThermalImage,
    extract_region,
    load_manifest,
    load_thermal,
    manifest_to_dict,
    save_manifest,
    save_thermal,
)
from .prototypes import (
    Posterior,
    PrototypeModel,
    build_model,
    classify_many,
    compute_centers,
    model_from_dict,
    model_to_dict,
    posterior,
    refine_centers,
)
from .synthetic import (
    RegionTempModel,
    SynthConfig,
    case_study_config,
    default_models,
    default_synth_config,
    separable_synth_config,
    synthesize,
    write_dataset,
)
from .taxonomy import (
    EQUIPMENT_TYPES,
    STATUSES,
    SUBCATEGORIES,
    EquipmentType,
    Status,
    SubcategoryId,
    parse_equipment_type,
    parse_status,
    subcategory_from_index,
)

__version__ = "0.1.0"
