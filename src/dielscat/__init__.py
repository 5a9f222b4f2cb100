# Scattering by dense periodic clusters of high-index dielectric particles:
# point-interaction solver, effective-medium volume integral equation, and
# the diagnostics connecting the two.

# numpy loads these submodules on first use: numpy.fft at the first lattice
# apply, numpy.ma (about 12 ms) at the first np.unique.  Importing them here
# moves that cost out of every study into the process set-up.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401

from .tensors import dyadic_green, dyadic_green_fd, helmholtz_kernel
from .geometry import (Cluster, DomainShape, ScaleSet,
                       boundary_counting_statistic, counting_sum,
                       derive_scales, generate_cluster, unit_ball, unit_box)
from .foldylax import (FarFieldSamples, FoldyLaxSolution, IncidentWave,
                       assemble_and_solve, cluster_far_field,
                       incident_magnetic, invertibility_margin)
from .effective import (amplification_f, ball_resonance_k4, classify_regime,
                        coercivity_window, correction_g, coupling_xi,
                        detuned_xi, dispersion_xi, effective_mu,
                        frequency_function_c, p0_ball, p0_from_moments,
                        plasmonic_frequency, tensor_T)
from .lse import (SpectrumReport, VolumeGrid, effective_far_field,
                  magnetization_apply, magnetization_spectrum, newtonian_apply,
                  nprime_apply, resonance_amplification_scan,
                  solve_effective_lse)

__version__ = "0.1.0"
