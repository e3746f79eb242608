"""Ergodic secrecy rates for the two-user fading multiple-access wiretap
channel: alignment-based transmission schemes, KKT power control and
high-SNR scaling experiments."""

from .channel import (ChannelState, FadingParams, GainBatch, StateBatch,
                      sample_batch, sample_gains, sba_block_gains)
from .config import ConfigError, ExperimentConfig, load_config
from .dof import (SumRateCurve, estimate_dof, gs_cj_upper_bound,
                  sum_rate_curve)
from .montecarlo import (CONSTANT, DUAL, ESA, ESA_CJ, GS_CJ, RUDIMENTARY,
                         SBA, SCHEMES, MonteCarloEstimate, ergodic_region,
                         grid_point, scheme_rates, spawn_rngs, worker_count)
from .powerctl import (CaseSolverError, DualPolicy, DualSearchResult,
                       DualVars, EffectiveState, RootSolveError,
                       cj_case_label, dual_search, effective_state,
                       esa_cj_kkt_residual)
from .rates import (ConstantPolicy, PowerBudget, PowerDecision,
                    RudimentaryEsaPolicy, RudimentarySbaPolicy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
