"""Seeded experiments with reproducible CSV output.

Every experiment kind takes a master seed, runs trial t with seed
(master_seed mod 2^64) + t, writes one CSV row per (trial, parameter point), and
returns a summary recomputed from the rows.  The same spec always produces
the same bytes, so result files can be diffed across machines and months.

This demo runs one spec of each kind into a temporary directory and prints
the summaries plus a few raw rows.
"""

import tempfile
from pathlib import Path

from binident import ExperimentSpec, run_experiment

tmp = tempfile.TemporaryDirectory(prefix="binident-demo-")
workdir = Path(tmp.name)
print("writing CSVs under", workdir)
print()

specs = [
    ExperimentSpec(
        "calibration",
        {"n": 100, "k": 5, "epsilon": "1/5", "constant": "64"},
        master_seed=0,
        trials=20,
        output_path=str(workdir / "calibration.csv"),
    ),
    ExperimentSpec(
        "test-curve",
        {
            "p": {"n": 4, "pmf": ["1/4", "1/4", "1/4", "1/4"]},
            "q": {"n": 2, "pmf": ["1/2", "1/2"]},
            "epsilons": ["1/10", "1/5", "2/5"],
            "constant": "64",
        },
        master_seed=1,
        trials=20,
        output_path=str(workdir / "test_curve.csv"),
    ),
    ExperimentSpec(
        "hard-pair-search",
        {"m": 3, "b": 12, "rho": "1"},
        master_seed=0,
        trials=1,
        output_path=str(workdir / "search.csv"),
    ),
    ExperimentSpec(
        "overflow-curve",
        {"m": 1, "b": 4, "rho": "1", "k_prime": 50, "s_grid": [2, 4, 8]},
        master_seed=2,
        trials=500,
        output_path=str(workdir / "overflow.csv"),
    ),
]

for spec in specs:
    result = run_experiment(spec)
    print(f"{spec.kind}: {len(result.rows)} rows -> {spec.output_path}")
    print("  summary:", result.summary)

print()
print("first rows of the calibration table:")
for line in (workdir / "calibration.csv").read_text().splitlines()[:4]:
    print(" ", line)

# Reruns are byte-identical.
before = (workdir / "calibration.csv").read_bytes()
run_experiment(specs[0])
print()
print("rerun byte-identical:", (workdir / "calibration.csv").read_bytes() == before)
tmp.cleanup()
