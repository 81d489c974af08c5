"""Finite-SNR achievable rates and desk-scale simulation for lattice
interference alignment on the same-linear-code modulo MAC."""

from .codes import (
    Codeword,
    LinearCode,
    encode,
    messages_dependent,
    sample_code,
)
from .diophantine import (
    Gain,
    best_rational_oracle,
    delta,
    is_prime,
    parse_gain,
    primes_up_to,
)
from .macsim import (
    AMBIGUOUS,
    PairDecoder,
    SimResult,
    estimate_error_prob,
    mod_mac_channel,
    wilson_interval,
)
from .modarith import (
    L,
    grid_real,
    mod_interval,
)
from .network import (
    ChannelFormatError,
    ChannelMatrix,
    NetworkSimResult,
    align_interference,
    bundled_channel_path,
    load_channel_file,
    parse_channel_text,
    simulate_network,
    sum_rate_curves,
)
from .powertime import (
    DecodeStep,
    GainOrderingError,
    Schedule,
    build_schedule,
    dof_factors,
    schedule_rate,
    schedule_rates,
)
from .rates import (
    RatePoint,
    db_to_linear,
    default_p_max,
    dependent_message_prob,
    dof_benchmark,
    dof_ratio,
    random_sym_capacity,
    theorem1_rate,
    theorem1_rows,
    theorem2_sym_rate,
    theorem2_sym_rates,
    time_sharing_sum_rate,
)

__version__ = "0.1.0"
