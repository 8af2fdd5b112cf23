"""Online adaptive I/O control (DESIGN.md "Online adaptive control").

The offline pipeline (Algorithm 1) picks a per-phase scheduler plan
from pre-measured tables; this package closes the loop online: a
controller waits on the running job's phase boundaries, reads the
devices' queue depths, and issues switches through the same
per-VM/elevator machinery, charging the measured state-dependent switch
cost.  Every switching phase plan runs through it:
:func:`repro.api.run_job` lowers such a plan to the greedy policy.
Policies are looked up by name in ``POLICIES``; the regret oracle
defines what "good" means and doubles as the test harness in
``tests/ctrl``.
"""

from .config import DEFAULT_ARMS, CtrlConfig
from .controller import BOUNDARY_NAMES, OnlineAdaptiveController
from .oracle import (
    OracleResult,
    build_oracle,
    enumerate_static_plans,
    payload_duration,
    plan_labels,
    static_ctrl_config,
)
from .policies import (
    POLICIES,
    BanditPolicy,
    ControllerPolicy,
    Decision,
    GreedyPolicy,
    HysteresisPolicy,
    Observation,
    make_policy,
    policy_names,
    resolve_policy,
)

__all__ = [
    "BOUNDARY_NAMES",
    "BanditPolicy",
    "ControllerPolicy",
    "CtrlConfig",
    "DEFAULT_ARMS",
    "Decision",
    "GreedyPolicy",
    "HysteresisPolicy",
    "Observation",
    "OnlineAdaptiveController",
    "OracleResult",
    "POLICIES",
    "build_oracle",
    "enumerate_static_plans",
    "make_policy",
    "payload_duration",
    "plan_labels",
    "policy_names",
    "resolve_policy",
    "static_ctrl_config",
]
