"""Confined-oscillator toolkit: a quadratic well between hard walls.

Solvers (imaginary-time relaxation, boundary-quantized closed forms, a
box-mode variational basis, first-order flat-box mixing),
position/momentum information measures with their rigorous bounds, a
semiclassical phase-plane view, and a deterministic sweep/report CLI.

Each public name lives in its own module and is imported from there
(`from confosc.exact_scho import scho_states`); the package root holds
only `__version__`, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
