"""Thermal-image fault classification for substation equipment.

Regions of radiometric images are summarized by the kernel density
estimate of their pixel temperatures on a fixed grid, then classified
against per-subcategory prototype centers, optionally refined with
unlabeled regions (weak supervision).

The package re-exports the names of the README's library example and of
the acceptance tests; every other name is imported from its module
(thermofault.images.RegionAnnotation, say).
"""

from .density import (
    FeatureGrid,
    KdeEstimator,
    anchored_histogram,
    feature_vector,
    histogram,
    interval_probability,
    kde_at,
    kde_values,
    silverman_bandwidth,
)
from .embedding import Episode, TrainConfig, init_mlp, proto_loss
from .harness import ExperimentConfig, run_both
from .images import extract_region
from .prototypes import build_model, classify_many, posterior, refine_centers
from .synthetic import synthesize

__version__ = "0.1.0"
