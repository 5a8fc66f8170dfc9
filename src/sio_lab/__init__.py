"""sio-lab: a numerical laboratory for truncated singular integral operators
on finite metric measure spaces.

The pieces: descriptor-driven finite metric spaces (`metric`), discrete
measures with certified growth constants and exact radial pushforwards
(`measure`), antisymmetric kernels with certified size bounds (`kernels`),
the constructive good-radius machinery in exact rational arithmetic
(`good_radii`), truncated operators and every estimate of the
truncation-difference argument (`operator`), fractal generators
(`generators`), and end-to-end convergence suites (`suite`, `cli`).
"""

from .errors import (BudgetError, CertificationError, Check,
                     DegenerateInputError, InputError, SearchExhaustedError)
from .generators import GeneratorSpec, generate
from .good_radii import (GoodRadiusCertificate, GoodRadiusRejection,
                         GoodSetParams, IntervalSet, RemovedFamily,
                         build_removed_families, is_good_radius,
                         materialize_good_set, select_good_radius_near,
                         verify_good_set)
from .kernels import (KernelSpec, check_antisymmetry, check_size_bound,
                      kernel_matrix)
from .measure import (DiscreteMeasure, StepMeasure, growth_constant,
                      interval_mass, load_measure, make_measure,
                      make_step_measure, normalize, radial_pushforward,
                      save_measure)
from .metric import (MetricDescriptor, PointCloud, load_cloud, make_cloud,
                     rescale_to_unit_diameter)
from .operator import (Ball, PairingTrace, SimpleFunction,
                       annuli_log_bound_check, boundary_term,
                       cancellation_residual, compute_pairing_trace,
                       log_boundary_sum, pairing, pairing_difference_bound,
                       shell_mass_check, total_boundary_integral)
from .suite import (ConvergenceReport, SuiteConfig, emit_report,
                    geometric_grid, parse_eps_grid, run_convergence_suite)
from .sums import pairwise_sum

__version__ = "0.1.0"
