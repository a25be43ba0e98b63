"""Contrastive embedding refinement for point cloud classification.

Joint cross-entropy + supervised InfoNCE training with two pair-reweighting
mechanisms: class-confusion mining over embedding-center distances and
entropy-aware attention over per-sample prediction uncertainty.
"""

import os

# Training bytes depend on the BLAS thread count: a product in the per-point
# MLP's gradient rounds differently when OpenBLAS splits it over threads. One
# thread unless the caller says otherwise; numpy reads these variables when
# it is first imported, so a caller that imports numpy before cedr keeps its
# own thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ExperimentConfig
from .data import build_dataset, default_shape_specs, read_dataset, write_dataset
from .encoder import EncoderConfig, PointEncoder
from .train import ablation_variants, run_variants, train

__all__ = [
    "ExperimentConfig",
    "EncoderConfig",
    "PointEncoder",
    "build_dataset",
    "default_shape_specs",
    "read_dataset",
    "write_dataset",
    "train",
    "ablation_variants",
    "run_variants",
]
