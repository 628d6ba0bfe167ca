"""No compiled kernels: the weights m and M are ``multipliers.weights``."""

USE_NUMBA = False  # kept because perfbench/run.py records it
