"""Ground-state nearest-neighbor concurrence of the spin-1/2 XXZ antiferromagnet.

Exact diagonalization on finite hypercubic lattices, linear spin-wave
theory in the thermodynamic limit, and machine checks of the analytic
structure (peak at the isotropic point, energy concavity, the
Hellmann-Feynman identity, and the d >= 2 cusp).

The package root holds only __version__; import the modules by name
(`from xxzent import ed, spinwave`). xxzent.spinwave imports numpy alone.
"""

__version__ = "0.1.0"
