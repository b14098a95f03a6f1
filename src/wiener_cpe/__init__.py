"""Carrier phase estimation toolkit for the Wiener phase-noise channel."""

from .channel import ChannelParams, ChannelTrace, phase_path, snr_to_noise_var, transmit
from .constellation import (
    Constellation,
    build_qam,
    entropy_bits,
    maxwell_boltzmann_shape,
    sample,
    shape_for_entropy,
)
from .estimators import (
    BpsOptParams,
    EstimatorConfig,
    PhaseGrid,
    bps_estimate,
    bps_opt_estimate,
    cpn_estimate,
    make_grid,
    map_bp_estimate,
    min_distance_table,
    q_matrix,
)
from .experiments import (
    CellResult,
    ConfigError,
    ExperimentConfig,
    build_constellation,
    emit_plot_data,
    evaluate_params,
    load_params,
    run_sweep,
    run_train,
)
from .metrics import BmiReport, bmi, llrs, optimize_demapper_variance
from .postproc import CorrectedTrace, cycle_slip_correct, derotate, postprocess, unwrap
from .training import TrainReport, TrainSchedule, adam_step, grad, loss, train

__version__ = "0.1.0"
