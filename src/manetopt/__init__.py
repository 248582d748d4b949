"""Max-min superposition-code power allocation for multi-hop NOMA relay networks."""

from .channels import (
    ChannelDataset,
    ChannelRealization,
    NoiseProfile,
    Topology,
    build_dataset,
    load_dataset,
    sample_channel,
    save_dataset,
    topology_of,
)
from .ensemble import BatchResult, EnsembleResult, infer, infer_batch
from .gradients import (
    ObjectiveGradient,
    finite_difference_gradient,
    objective_gradient,
    tie_margin,
)
from .gridsearch import GridResult, grid_capacity
from .errors import CapabilityError, ConfigurationError
from .pgd import (
    FIXED_STEP,
    PgdTrajectory,
    calibrate_fixed_step,
    pgd_step,
    run_pgd,
    run_pgd_batch,
    write_trajectory_csv,
)
from .pilots import PilotBlock, lmmse_estimate, make_pilots, simulate_pilot_rx
from .power import (
    is_feasible,
    load_power_matrix,
    project,
    random_init,
    save_power_matrix,
    uniform_init,
)
from .rates import (
    RateReport,
    compute_report,
    first_hop_rate,
    gain,
    later_hop_rate,
    message_rate,
    min_rate,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_update,
    load_schedule,
    loss_grad_mu,
    save_schedule,
    train,
)

__version__ = "0.1.0"
