"""Confined-oscillator toolkit: a quadratic well between hard walls.

Solvers (imaginary-time relaxation, boundary-quantized closed forms, a
box-mode variational basis, first-order flat-box mixing),
position/momentum information measures with their rigorous bounds, a
semiclassical phase-plane view, and a deterministic sweep/report CLI.
"""

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    acho_unit_box, box_grid, brent_root, scho_unit_box,
                    simpson)
from .itp_solver import LadderError, PentaSystem, solve_spectrum, solve_state
from .exact_scho import (RootSearchError, kummer_1f1, pib_energy,
                         scho_eigenvalue, scho_states)
from .variational import (BasisError, BasisSet, basis_size, build_basis,
                          diagonalize, hamiltonian_matrix, solve_acho)
from .spectral import MomentumDensity, parseval_defect, to_momentum
from .infomeasures import (BOUND_SLACK, FISHER_FLOOR, InfoReport,
                           ONICESCU_CEILING, SHANNON_FLOOR, fisher,
                           full_report, onicescu, shannon)
from .perturbation import (pib_energy_unit_box, pib_state_values,
                           pib_x2_element, pt_energy, pt_fisher_x,
                           pt_onicescu_x0, pt_shift, pt_wavefunction)
from .semiclassical import (PhaseOrbit, classical_region_lengths,
                            phase_area, phase_orbit, tunneling_probability,
                            turning_points)
from .sweep import CrossReport, ReportRow, SweepSpec, cross_check, run_sweep
from .cli_reports import (ConfigError, SchemaError, emit_table, main,
                          parse_config, rows_from_csv, rows_to_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
