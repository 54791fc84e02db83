"""Desk-scale numerics for quantum channel coding.

Subpackages:
  linalg        dense complex linear algebra, entropies, Haar sampling
  channels      Kraus channels: construction, minimal families, information quantities
  codes         code subspaces, entanglement fidelity, computable fidelity bounds
  random_coding Haar code ensembles: Monte Carlo and exact averages
  typicality    typical sequences/subspaces and reduced block channels
  cli           the `qcap` command-line front end
"""

from . import channels, codes, linalg, random_coding, serialize, typicality

__version__ = "0.1.0"

__all__ = ["channels", "codes", "linalg", "random_coding", "serialize", "typicality"]
