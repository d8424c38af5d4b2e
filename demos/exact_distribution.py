"""
Exact distribution of per-frame successes
=========================================

Walks through the core object of the library: the exact probability
mass function of the number of users that get a data slot in one
access frame, computed with rational arithmetic and no sampling.
"""

from fractions import Fraction

from accessframe import SystemConfig, success_pmf

# A frame with 8 contention tokens, 4 data slots and 12 users.  Every
# user activates one token uniformly at random; tokens seen active get
# a data slot while slots last, and a slot pays off only when exactly
# one user sits behind its token.
config = SystemConfig(tokens=8, data_slots=4, users=12)
pmf = success_pmf(config)

print(f"frame: M={config.tokens} tokens, K={config.data_slots} data slots, "
      f"T={config.users} users")
print(f"successes per frame can reach min(M, K, T) = {config.max_successes}")
print()

# The pmf holds integer counts of the M**T assignments over one
# denominator; each mass is an exact fraction read off them, and the
# float view is only for display.
print("d   P(S_D = d)          as float")
for d, mass in enumerate(pmf.mass):
    print(f"{d}   {str(mass):<18}  {float(mass):.6f}")
print(f"sum of masses: {sum(pmf.mass)} (exactly one, by construction)")
print(f"mean successes: {pmf.mean()} = {float(pmf.mean()):.6f}")
print()

# Once K >= M the data phase stops being the bottleneck: every active
# token gets a slot, so adding more slots cannot change the outcome.
saturated = success_pmf(SystemConfig(8, 8, 12))
oversized = success_pmf(SystemConfig(8, 16, 12))
print(f"K=8 and K=16 give identical distributions: "
      f"{saturated.mass == oversized.mass}")

# And with K >= M the chance a given user succeeds has a closed form,
# the probability that nobody else picked its token.
closed_form = Fraction(7, 8) ** 11
print(f"per-user success probability at K=8: {saturated.mean() / 12} "
      f"= (7/8)**11 is {saturated.mean() / 12 == closed_form}")
