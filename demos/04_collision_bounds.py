"""Block collisions: the birthday bound behind the hard instances.

The blown-up hard pairs of demo 03 spread their mass uniformly over k'
blocks and are indistinguishable unless one block receives more than m
samples.  The chance of that is a generalized birthday problem: throw s
balls into k' boxes and ask for a box with at least m+1 occupants.

The package computes this probability exactly with J. C. P. Miller's
recurrence for the powers of a polynomial, in s*m steps whatever k'; for
m = 1 it collapses to the classical birthday product.  The sample-size
curve then confirms the numbers empirically on a real blown-up pair.
"""

from fractions import Fraction

from binident import (
    block_overflow_probability,
    make_hard_instance,
    sample_size_curve,
)

k_prime = 100

print(f"exact overflow probabilities, k' = {k_prime} blocks:")
print(f"{'s':>4} {'m=1':>10} {'m=2':>10} {'m=3':>10}")
for s in (2, 5, 10, 20, 40):
    row = [block_overflow_probability(k_prime, s, m) for m in (1, 2, 3)]
    print(f"{s:>4} " + " ".join(f"{float(v):>10.6f}" for v in row))
print()

# m = 1 against the classical birthday product.
s = 10
stay_distinct = Fraction(1)
for i in range(s):
    stay_distinct *= 1 - Fraction(i, k_prime)
print(f"birthday product at s = {s}:", float(1 - stay_distinct))
print("matches the recurrence exactly:",
      block_overflow_probability(k_prime, s, 1) == 1 - stay_distinct)
print()

# Empirical fractions on a blown-up pair (m = 1 base over 4 elements).
pair = make_hard_instance(1, 4, 1, k_prime)
grid = [2, 4, 6, 8, 10, 20]
rows = sample_size_curve(pair, grid, trials=2000, seed=0)
print(f"sampled overflow fractions, 2000 trials, domain {pair.p_big.n}:")
print(f"{'s':>4} {'empirical':>10} {'exact':>10}")
for row in rows:
    print(f"{row['s']:>4} {float(row['overflow_fraction']):>10.4f}"
          f" {float(row['exact_probability']):>10.4f}")
print()
print("Below m+1 samples the fraction is identically zero; past that it")
print("climbs like the birthday curve, so distinguishing the pair needs")
print("a sample size that grows with the number of blocks.")
