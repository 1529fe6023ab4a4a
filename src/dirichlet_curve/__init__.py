"""Dirichlet curve toolkit.

Implements, samples, and statistically verifies the curve t -> mu(t*alpha):
the law of the mean of a Dirichlet random probability with governing measure
alpha and intensity t. Modules:

* measures: governing measures alpha, their samplers and analytic summaries
* stickbreak: three samplers for mu(t*alpha) and the aggregation identity
* exact: the laws on the curve that are not measure families, moment
  recursion, density formulas
* transforms: Stieltjes/log transforms and identity residuals
* cauchy: d-dimensional Cauchy laws from spectral measures, invariance checks
* stats: KS tests, hinge-based convex-order checks, the beta identity
* cli: named, seeded verification experiments emitting CSV
"""

from .measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    CauchyRd,
    DiscreteAtoms,
    EmpiricalSample,
    GoverningMeasure,
    RngStream,
    ScaledProduct,
    Uniform01,
    UniformCircle,
    bernoulli,
    point_mass,
    sample_measure,
)
from .stickbreak import (
    DEFAULT_POLICY,
    TruncationPolicy,
    sample_dirichlet_mean,
    sample_fixed_point,
    sample_james_aggregation,
    sample_mean_dyadic,
)

from .cauchy import (
    SpectralCauchy,
    draw_spectral_cauchy,
    trefoil_median,
    trefoil_spectrum,
    uniform_spectrum,
    w_of,
)
from .exact import (
    DensityLaw,
    Law,
    MomentTable,
    RadialCircleLaw,
    cdf,
    cr_density,
    curve_of,
    dk_density,
    moment_recursion,
    q_certificate,
)
from .stats import (
    KSReport,
    beta_identity_check,
    convex_order_check,
    hinge_curve,
    ks_one_sample,
    ks_two_sample,
)
from .transforms import (
    cr_identity_residual,
    log_transform,
    ode_residual,
    power_identity_residual,
    stieltjes,
    stieltjes_derivative,
)

__version__ = "0.1.0"
