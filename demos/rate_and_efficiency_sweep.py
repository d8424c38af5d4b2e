"""
Success rate and efficiency across the load axis
================================================

Tabulates the two headline metrics while the number of contending
users grows, for three data-phase sizes, all exact and from the mean
success count alone.
"""

from accessframe import Axis, SystemConfig, frame_metrics, sweep

# success_rate is the probability a given user gets its data through;
# efficiency is delivered users per frame slot (K data slots plus the
# contention slot).  Sweep users from 1 to 30 at M=8 tokens.
reports = {
    slots: sweep(SystemConfig(8, slots, 1), Axis.USERS, range(1, 31))
    for slots in (4, 8, 16)
}

print("success rate, M=8")
print("T     K=4       K=8       K=16")
for i, users in enumerate(reports[4].values):
    row = [reports[slots].rows[i].success_rate for slots in (4, 8, 16)]
    print(f"{users:<4}  {float(row[0]):.5f}   {float(row[1]):.5f}   "
          f"{float(row[2]):.5f}")
print()

# Two shapes worth noticing: the rate only degrades as load grows, and
# the K=8 and K=16 columns agree everywhere because slots beyond the
# token count can never be used.
k8 = [row.success_rate for row in reports[8].rows]
k16 = [row.success_rate for row in reports[16].rows]
print(f"K=8 column equals K=16 column exactly: {k8 == k16}")
print()

# The metrics are two views of one number: expected successes equals
# success_rate * T and efficiency * (K + 1).
metrics = frame_metrics(SystemConfig(8, 4, 12))
print(f"at M=8, K=4, T=12:")
print(f"  expected successes      {metrics.expected_successes}")
print(f"  success_rate * T        {metrics.success_rate * 12}")
print(f"  efficiency * (K + 1)    {metrics.efficiency * 5}")
