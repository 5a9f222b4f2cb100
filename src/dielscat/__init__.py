# Scattering by dense periodic clusters of high-index dielectric particles:
# point-interaction solver, effective-medium volume integral equation, and
# the diagnostics connecting the two.

# numpy loads numpy.fft on first use.  Only the counting study's lattice
# sums call it (the lattice operator transforms by DFT matrix products);
# importing it here keeps that load in the process set-up, out of the
# study.  No module calls np.unique, which would load numpy.ma (about 15 ms
# and 1.4 MB) into the process.
import numpy.fft  # noqa: F401

from .geometry import (Cluster, DomainShape, ScaleSet,
                       boundary_counting_statistic, derive_scales,
                       generate_cluster, max_counting_sum, unit_ball,
                       unit_box)
from .foldylax import (FarFieldSamples, FoldyLaxSolution, IncidentWave,
                       assemble_and_solve, cluster_far_field,
                       invertibility_margin)
from .effective import (amplification_f, ball_moment_vectors,
                        ball_resonance_k4, classify_regime, coercivity_window,
                        correction_g, coupling_xi, detuned_xi, effective_mu,
                        effective_mu_ball, frequency_function_c, p0_ball,
                        p0_from_moments, plasmonic_frequency,
                        spectral_gap_delta, tensor_T)
from .lse import (VolumeGrid, effective_far_field, magnetization_operator,
                  magnetization_spectrum, newtonian_operator,
                  newtonian_operator_norm, nnprime_inner_product,
                  nprime_operator, resonance_amplification_scan,
                  solve_effective_lse)

__version__ = "0.1.0"
