"""Counting closure-defined families of interval modules over a linear quiver.

The package has three layers: endpoint arithmetic on intervals
(:mod:`intervalcat.intervals`), an independent GF(2) linear-algebra model
used to verify it (:mod:`intervalcat.oracle`), and a Horn-rule closure
engine with layer-transfer, lectic-enumeration and brute-force counting on top
(:mod:`intervalcat.closure`, :mod:`intervalcat.counting`).  Finite posets,
their ideals, subfunctor counts and incidence dimensions live in
:mod:`intervalcat.posets`.  The package itself exports nothing: import
each name from its submodule.
"""
