"""Finite element solver for the coupled Maxwell-Schrodinger equations under
the Lorentz gauge, discretized by a decoupled alternating Crank-Nicolson
Galerkin scheme, plus the manufactured-solution verification harness.

Submodules: mesh, elements, space, sparsela, forms, scheme, mms.
"""

__version__ = "0.1.0"
