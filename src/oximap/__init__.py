"""oximap: oxygen-extraction and blood-volume mapping from ASE qBOLD MRI.

Forward signal models, a scaled logit-normal parameter distribution,
synthetic training data, a small self-contained encoder network with
amortized variational training, and map-level analysis tools, all behind
one CLI (`oximap`).

Results are bit-reproducible for a fixed config and seed at a fixed BLAS
thread count, whatever the number of usable CPUs. Importing the package
first pins OpenBLAS, OpenMP and MKL to one thread, unless the environment
already sets a count; the pin acts only if NumPy is not loaded yet, so a
program that imports NumPy before oximap must set OPENBLAS_NUM_THREADS=1
(or its BLAS's variable) itself. Fine-tuning's gated blocks split their
array work with one helper thread when two CPUs are usable, each thread at
the pinned BLAS count, in a way that changes no bit; detached passes
(prior maps, inference) run on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    blood_signal,
    characteristic_time,
    delta_omega,
    mean_square_inhomogeneity,
    normalize_signal,
    normalized_model_signal,
    r2_prime,
    static_dephasing_integral,
    steady_state_magnetization,
    total_signal,
)
from .distributions import (
    PARAM_OFFSET,
    PARAM_SCALE,
    ScaledLogitNormal,
    forward_transform,
    inverse_transform,
    kl_analytic,
    kl_monte_carlo,
    truncated_normal_sample,
)
from .volume import Volume4D, normalize_volume
from .synthgen import (
    PRIOR_PRESETS,
    NoiseProfile,
    ParamPriorConfig,
    PriorSpec,
    SynthDataset,
    generate_dataset,
    load_dataset,
    make_phantom,
    save_dataset,
)
from .nnet import (
    EncoderWeights,
    NetworkConfig,
    encoder_forward,
    extend_weights,
    init_weights,
    load_checkpoint,
    prediction_to_distribution,
    save_checkpoint,
)
from .train import (
    FinetuneConfig,
    PriorMaps,
    TrainingConfig,
    compute_prior_maps,
    elbo_loss,
    pretrain_loss,
    run_finetuning,
    run_pretraining,
    tv_loss,
)
from .analysis import (
    InferenceConfig,
    ParamMaps,
    elbo_map,
    infer_maps,
    paired_tstat,
    region_stats,
    wls_fit,
)
from .nifti import NiftiFormatError, read_nifti, write_nifti
from .config import ConfigError, RunConfig, load_config, save_config
from .cli import cli_dispatch, main

__version__ = "0.1.0"
