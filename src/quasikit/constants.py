"""Values the command-line parser reads, stated once and free of numpy, so
that ``--help``, ``--version`` and usage errors load no library module."""

# Defaults for the verdict heuristic. sigma_div = 0.01 separates the slowest
# divergent catalog growth (double-log weights) from the Gevrey convergent
# ones at desk-scale horizons; eps_conv matches double-precision plateaus.
SIGMA_DIV = 0.01
EPS_CONV = 1e-6

# the mu(t) families of the weight functions m(t) = t log t + t mu(t)
MU_FAMILIES = ("zero", "loglog", "log", "power")
