"""Exact verification toolkit for sl2-invariant R-matrices.

The package constructs the recoupling matrices that reduce the
braid-form Yang-Baxter equation to the highest-weight spaces of the
triple tensor power, evaluates the known solution families exactly over
Q and Q(sqrt(d)), and runs the classification scans (degeneracy of the
four-matrix system, diagonal ratio obstructions, constant R-matrices,
permutation rigidity) with zero numerical error.  An exact dense oracle
cross-validates the reduced formalism on small spins.  Each function is
imported from its module (`sl2ybe.ybe`, `sl2ybe.spectral`, ...); the
package itself binds only `__version__`.
"""

__version__ = "0.1.0"
