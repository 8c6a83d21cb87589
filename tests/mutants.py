"""Mutation probe: does tier-1 catch one-line mistakes in src/sublevy/?

    python3 tests/mutants.py

Copies the repository into a temporary directory, runs tier-1 there once
unmutated, then once per mutant below with that one line changed in the
copy, each run without tests/test_golden.py: the golden bytes would catch
every mutant that moves an output, so leaving them out shows what the other
tests pin.  A mutant is killed when a test fails.  Prints one line per
mutant and exits 1 when a mutant's target text is not found exactly once in
its file, when the unmutated copy fails, or when a mutant survives.  The
repository itself is only read.  Pytest does not collect this module (no
test_ prefix); the probe takes a few minutes, so it stays out of tier-1.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (what the mutant breaks, file under src/sublevy/, text, replacement)
MUTANTS = [
    ("the sign of the drift symbol", "levy.py",
     "both = np.multiply(1j, _phase(q.b, modes))",
     "both = np.multiply(-1j, _phase(q.b, modes))"),
    ("the sign of the small-jump compensation", "levy.py",
     "term -= 1j * theta",
     "term += 1j * theta"),
    ("the member-at-a-time tie rule > to >=", "levy.py",
     "where=member[:, 0] > out)",
     "where=member[:, 0] >= out)"),
    ("the pause rule: step the levels <= P + 1 always", "nisio.py",
     "stepped = stop + 1 + (stop > level + 1 or lowest <= stop)",
     "stepped = stop + 2"),
    ("a monotonicity guard 10x looser", "nisio.py",
     "MONOTONICITY_ERROR_TOL = 1e-8",
     "MONOTONICITY_ERROR_TOL = 1e-7"),
    ("RK4's k4 weight x 1.001", "oracles.py",
     "(k1 + 2.0 * k2 + 2.0 * k3 + k4)",
     "(k1 + 2.0 * k2 + 2.0 * k3 + 1.001 * k4)"),
    ("the generator-limit refinement floor, level 8 to 6", "nisio.py",
     "steps = [2 ** max(8, math.ceil(math.log2(1.0 / h)) + 4) for h in hs]",
     "steps = [2 ** max(6, math.ceil(math.log2(1.0 / h)) + 4) for h in hs]"),
    ("the Monte Carlo bound with 4 stderr for 3", "mc.py",
     "limit = reference_value + 3.0 * est.stderr + scheme_tol",
     "limit = reference_value + 4.0 * est.stderr + scheme_tol"),
]

IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".out")


def tier1(tree: Path) -> tuple[bool, str]:
    """Whether tier-1 without the goldens passes in tree, stopping at the first
    failure, and pytest's last line with the test that failed."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--ignore=tests/test_golden.py"],
                         cwd=tree, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines() or [run.stderr.strip()[-200:]]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return run.returncode == 0, lines[-1] + "".join(f", {name}" for name in failed)


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)  # each line as its run ends
    src = ROOT / "src" / "sublevy"
    originals = {name: (src / name).read_text() for _, name, _, _ in MUTANTS}
    bad = [(what, name) for what, name, old, _ in MUTANTS if originals[name].count(old) != 1]
    for what, name in bad:
        print(f"target text of '{what}' is not found exactly once in src/sublevy/{name}")
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="sublevy-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        passed, summary = tier1(tree)
        print(f"unmutated: {summary}")
        if not passed:
            return 1
        survivors = 0
        for what, name, old, new in MUTANTS:
            target = tree / "src" / "sublevy" / name
            target.write_text(originals[name].replace(old, new))
            passed, summary = tier1(tree)
            target.write_text(originals[name])
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {what}: {summary}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
