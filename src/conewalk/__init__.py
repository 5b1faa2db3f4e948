"""conewalk: exact calculus for cone degenerations of hypersurfaces.

Submodules:

* ``coeffs``   -- GF(p) helpers and the ring of named parameters
* ``poly``     -- sparse polynomials in variables and Laurent parameters,
  one term dict each, canonical text form
* ``factorizer`` -- irreducibility oracle (univariate factorization,
  randomized absolute-irreducibility testing by plane slicing)
* ``basecase`` -- seed hypersurface states
* ``doublecone`` -- the cone family, the dimension-raising step, and its
  symbolic verifiers
* ``bounds``   -- binomial floor sums, closed forms, applicability witnesses
* ``skeleton`` -- dual graphs, obstruction maps, subdivision, cokernel torsion
* ``cli``      -- command-line interface
"""

__version__ = "0.1.0"
