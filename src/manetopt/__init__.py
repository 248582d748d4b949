"""Max-min superposition-code power allocation for multi-hop NOMA relay networks."""

from .channels import (
    ChannelDataset,
    ChannelRealization,
    NoiseProfile,
    Topology,
    build_dataset,
    sample_channel,
    topology_of,
)
from .ensemble import BatchResult, infer_batch
from .gradients import (
    ObjectiveGradient,
    finite_difference_gradient,
    objective_gradient,
    tie_margin,
)
from .gridsearch import GridResult, grid_capacity
from .errors import CapabilityError, ConfigurationError
from .pgd import FIXED_STEP, calibrate_fixed_step, run_pgd_batch
from .pilots import lmmse_estimates
from .power import is_feasible, project, random_init, uniform_init
from .rates import RateReport, compute_report, min_rate
from .training import (
    AdamState,
    TrainConfig,
    adam_update,
    load_schedule,
    save_schedule,
    train,
)

__version__ = "0.1.0"
