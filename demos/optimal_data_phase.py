"""
Sizing the data phase
=====================

Every data slot added to the frame is another chance to deliver a user
and another slot to pay for.  This script scans the trade-off and
picks the efficiency-maximizing data-phase size exactly.
"""

from accessframe import SystemConfig, optimal_data_slots, sweep

# At M=8 tokens, scan K from 1 to 8 for a few loads.  Efficiency counts
# delivered users per frame slot, so the frame length K+1 sits in the
# denominator and large data phases must earn their keep.
loads = (8, 12, 16, 24)

print("efficiency, M=8 (* marks the best K per column)")
header = "K    " + "   ".join(f"T={users:<4}" for users in loads)
print(header)

# One data-slots sweep per load reads every K from a single pass.
columns = {
    users: sweep(SystemConfig(8, 1, users), "data_slots", range(1, 9)).rows
    for users in loads
}
best = {users: optimal_data_slots(tokens=8, users=users, k_max=8) for users in loads}
for slots in range(1, 9):
    cells = []
    for users in loads:
        value = columns[users][slots - 1].efficiency
        mark = "*" if slots == best[users][0] else " "
        cells.append(f"{float(value):.4f}{mark}")
    print(f"{slots:<4} " + "  ".join(cells))
print()

# The peak sits strictly inside the scanned range: matching the data
# phase to the token count buys almost nothing over a smaller frame,
# because collided tokens occupy slots without delivering anyone.
for users in loads:
    slots, value = best[users]
    print(f"T={users:<3} best data phase K*={slots}, "
          f"efficiency {float(value):.6f}")
