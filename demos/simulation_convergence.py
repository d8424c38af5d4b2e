"""
Seeded simulation against the exact answer
==========================================

Runs the Monte Carlo side of the library: single frame traces,
estimation of the success distribution by walking all frames together
through their occupancy states, and the total variation distance to the
exact reference as the frame count grows.
"""

from accessframe import (
    DetectionMode,
    SimParams,
    SystemConfig,
    compare_to_exact,
    estimate_pmf,
    make_rng,
    simulate_frame,
)

config = SystemConfig(tokens=8, data_slots=4, users=12)

# A single frame, step by step.  counts[m] is how many users activated
# token m; selected lists the tokens granted a data slot; successes
# counts the granted tokens that carried exactly one user.
rng = make_rng(2026)
trace = simulate_frame(config, DetectionMode.BINARY, rng)
print("one binary-detection frame:")
print(f"  token activation counts: {trace.counts}")
print(f"  tokens granted a slot:   {trace.selected}")
print(f"  delivered users:         {trace.successes}")
print()

# Under ternary detection the base station can tell singles from
# collisions, so collided tokens never waste a data slot.
trace = simulate_frame(config, DetectionMode.TERNARY, rng)
print("one ternary-detection frame:")
print(f"  token activation counts: {trace.counts}")
print(f"  tokens granted a slot:   {trace.selected}")
print(f"  delivered users:         {trace.successes}")
print()

# Estimate the whole distribution from N frames and measure how far it
# sits from the exact pmf.  Same seed, growing N: the distance shrinks.
print("N        TV distance to exact pmf")
for iterations in (1000, 10000, 100000):
    params = SimParams(config, iterations=iterations, seed=7)
    record = compare_to_exact(estimate_pmf(params))
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
