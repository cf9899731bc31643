"""Tropical holonomy asymptotics of SL(3,R) Hitchin rays.

Modules:
    surface   -- flat cone surfaces of cubic differentials, saddle connections
    tropical  -- asymptotic exponent formulas for geodesic paths
    polygon   -- regular-polygon vertex lifts, Stokes flips, leading terms
    wang      -- the cubic differential's closed forms, Wang-equation solver
    frame     -- frame-field ODE transport and Titeica closed forms
    building  -- A2 apartment model, local maps at zeros, convexity checks
    trigroup  -- triangle-group flat orbifolds and tropical spectra
    cli       -- command-line front end
"""

__version__ = "0.1.0"
