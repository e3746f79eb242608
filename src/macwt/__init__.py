"""Ergodic secrecy rates for the two-user fading multiple-access wiretap
channel: alignment-based transmission schemes, KKT power control and
high-SNR scaling experiments."""

from .channel import (ChannelState, FadingParams, PairingReport,
                      QuantizedState, SbaBlock, StateBatch,
                      ergodic_pairing_demo, esa_partner, quantize,
                      sample_batch, sba_block_gains, simulate_repetition)
from .config import ConfigError, ExperimentConfig, load_config
from .dof import (SumRateCurve, dominated_bound_esa, dominated_bound_sba,
                  estimate_dof, gs_cj_upper_bound, sum_rate_curve)
from .montecarlo import (ESA, ESA_CJ, GS_CJ, SBA, SCHEMES,
                         MonteCarloEstimate, ergodic_region, scheme_rates,
                         spawn_rngs, worker_count)
from .powerctl import (CaseSolverError, DualPolicy, DualSearchResult,
                       DualVars, EffectiveState, RootSolveError,
                       cj_case_label, closed_form_p1, closed_form_p2,
                       dual_search, effective_state, esa_case_id,
                       esa_cj_case_label, esa_cj_kkt_residual,
                       esa_kkt_residual, grid_oracle, solve_common_root,
                       solve_p1q2, solve_p2q1)
from .rates import (ConstantPolicy, PowerBudget, PowerDecision, RateTriple,
                    RudimentaryEsaPolicy, RudimentarySbaPolicy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
