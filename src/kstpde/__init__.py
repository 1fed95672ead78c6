"""Numerical superposition-theorem pipeline for reducing the 2-D Poisson
boundary value problem to one-dimensional ODE boundary value problems."""

__version__ = "0.1.0"
