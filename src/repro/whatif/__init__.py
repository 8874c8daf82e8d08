"""What-if layer: predict QS vectors for candidate RM configurations.

The What-if Model (Section 7) composes the Workload Generator and the
Schedule Predictor: given a workload description and a candidate RM
configuration, it produces the predicted task schedule and evaluates the
QS metrics on it — the inner loop of Tempo's Optimizer.  The
provisioning module applies the same machinery across cluster sizes
(Section 8.2.4).
"""

from repro.whatif.evalpool import BatchResult, BoundWhatIf, CandidateEvaluator
from repro.whatif.model import WhatIfModel
from repro.whatif.provisioning import ProvisioningAdvisor, ProvisioningEstimate
from repro.workload.model import capacity_floor

__all__ = [
    "BatchResult",
    "BoundWhatIf",
    "CandidateEvaluator",
    "WhatIfModel",
    "capacity_floor",
    "ProvisioningAdvisor",
    "ProvisioningEstimate",
]
