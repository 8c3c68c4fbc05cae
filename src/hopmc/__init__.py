"""hopmc: morphological-computation measures for hopping models.

Simulates three one-dimensional hopping models (nonlinear muscle, linearized
muscle, PD-controlled DC motor), discretizes the resulting sensorimotor time
series on shared domains, and quantifies how much of the behavior is carried
by the body dynamics rather than the controller.
"""

from ._version import __version__
from .models import (
    DCMotModel,
    DCMotParams,
    HopperCommon,
    MusFibModel,
    MusFibParams,
    MusLinModel,
    MusLinParams,
    ReferenceTrajectory,
    make_model,
)
from .integrator import (
    IntegratorConfig,
    IntegrationError,
    Trace,
    contact_segments,
    extract_stance_reference,
    integrate,
    load_trace,
)
from .discretize import (
    BinningSpec,
    DiscreteTrace,
    build_discrete_trace,
    compute_domains,
)
from .measures import (
    MeasureResult,
    compute_measures,
    mc_mi,
    mc_mi_state,
    mc_w,
    mc_w_state,
    moving_average,
)
