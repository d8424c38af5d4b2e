"""
Seeded simulation against the exact answer
==========================================

Runs the Monte Carlo side of the library: estimation of the success
distribution by walking all frames together through their occupancy
states, the total variation distance to the exact reference as the
frame count grows, and the two detection modes side by side.
"""

from accessframe import (
    DetectionMode,
    SimParams,
    SystemConfig,
    compare_to_exact,
    estimate_pmf,
    success_pmf,
)

config = SystemConfig(tokens=8, data_slots=4, users=12)

# Estimate the whole distribution from N frames and measure how far it
# sits from the exact pmf, built once for all three runs.  Same seed,
# growing N: the distance shrinks.
exact = success_pmf(config)
print("N        TV distance to exact pmf")
for iterations in (1000, 10000, 100000):
    params = SimParams(config, iterations=iterations, seed=7)
    record = compare_to_exact(estimate_pmf(params), exact)
    print(f"{iterations:<8} {float(record.tv_distance):.5f}")
print()

# The two detection modes head to head at the same load: withholding
# slots from collided tokens buys a visibly higher delivery rate.
binary = estimate_pmf(SimParams(config, iterations=100000, seed=11))
ternary = estimate_pmf(
    SimParams(config, iterations=100000, seed=11, mode=DetectionMode.TERNARY)
)
print(f"mean successes, binary detection:  {float(binary.mean_successes):.4f}")
print(f"mean successes, ternary detection: {float(ternary.mean_successes):.4f}")
