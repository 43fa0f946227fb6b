"""How many samples does the empirical estimator need?

The tester's learning step draws s = ceil(C k / eps^2) samples and relies
on the empirical distribution being within interval distance eps/4 of the
source.  The interval distance over k intervals is what matters: it is
exactly the worst summed discrepancy any k-bin split can see.

This calibration sweep measures the miss rate of that guarantee for
several constants C.  C = 16 (the package default, i.e. VC constant 1 at
the eps/4 scale) under-learns by roughly a factor 4 in sample count:
its typical error lands near 1.6x the target.  C = 64 is the smallest
power of two that reliably clears the target.
"""

from fractions import Fraction

from binident import Distribution, calibration_curve

n, k = 200, 10
eps = Fraction(1, 5)
target = eps / 4
trials = 60
p = Distribution.uniform(n)

print(f"uniform source over [{n}], k = {k}, eps = {eps}, target error {target}")
print(f"{'C':>4} {'samples':>8} {'within target':>14} {'mean error':>11}")
for constant in (8, 16, 32, 64, 128):
    # Trial t draws ceil(C k / eps^2) samples with seed t.
    rows = calibration_curve(p, k, eps, trials, 0, constant)
    hits = sum(r["passed"] for r in rows)
    mean = sum(r["ak_error"] for r in rows) / trials
    print(f"{constant:>4} {rows[0]['samples']:>8} {hits:>7}/{trials:<6} {float(mean):>11.4f}")

print()
print("The end-to-end tester is far less sensitive than the raw learning")
print("error: minimizing the discrepancy over all splits absorbs most of the")
print("estimation noise, which is why the default C = 16 still yields")
print("reliable verdicts on well-separated instances (see demo 01).")
