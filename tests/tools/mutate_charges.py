"""Raise each query-charge site by one and check that a named test catches it.

    python tests/tools/mutate_charges.py

Run it from anywhere; it reads the repository it sits in and writes nothing
there.  For each site it copies src/, tests/, perfbench/ and pyproject.toml
into a fresh temporary directory (perfbench/ too: some Tier-1 tests import it
from next to tests/), replaces the site's source text with its mutant inside
the site's function, and runs Tier-1 there with criterion 03 deselected.  The
unmutated copy runs first and must pass.  tests/test_mutate_charges.py is left
out of every run: it checks this site list against the source, so it fails on
every mutant and would count as a kill.

A mutant is killed when a test fails.  The golden-hash tests pin whole record
streams, so a mutant that only they catch has no test that names its charge.
The script exits 1 when a mutant survives or is killed only by golden-hash
tests, and 2 when the unmutated copy fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Set

REPO = Path(__file__).resolve().parents[2]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
DESELECTED = "tests/test_acceptance.py::test_criterion_03_quarter_pi_strict_bound"
SITE_LIST_TESTS = "tests/test_mutate_charges.py"
GOLDEN_TESTS = frozenset(
    "tests/test_bench.py::" + name for name in (
        "test_golden_records",
        "test_golden_csv_records",
        "test_golden_records_under_one_blas_thread",
        "test_golden_dense_records",
        "test_golden_sat_records",
    ))


class Site(NamedTuple):
    """A charge site: `text` occurs once in `function` of `path`; `mutant` charges one more."""

    name: str
    path: str
    function: str  # qualified within the module, e.g. "BitOracle.query"
    text: str
    mutant: str


SITES = (
    Site("grover._sweep_restarts.rounds", "src/qsearchlab/grover.py", "_sweep_restarts",
         "oracle.charge(sum(rounds[:charged]))", "oracle.charge(sum(rounds[:charged]) + 1)"),
    Site("grover._sweep_restarts.verifications", "src/qsearchlab/grover.py", "_sweep_restarts",
         "oracle.charge(charged)", "oracle.charge(charged + 1)"),
    Site("sim.BitOracle.query", "src/qsearchlab/sim.py", "BitOracle.query",
         "self.charge(1)", "self.charge(2)"),
    Site("sim.ValueOracle.value", "src/qsearchlab/sim.py", "ValueOracle.value",
         "self.charge(1)", "self.charge(2)"),
    Site("sim._repeat_round", "src/qsearchlab/sim.py", "_repeat_round",
         "oracle.charge(count)", "oracle.charge(count + 1)"),
    Site("sim.apply_phase_rotation", "src/qsearchlab/sim.py", "apply_phase_rotation",
         "oracle.charge(1)", "oracle.charge(2)"),
    Site("minima.find_minimum.champion", "src/qsearchlab/minima.py", "find_minimum",
         "oracle.charge(1)", "oracle.charge(2)"),
    Site("walks.grid_walk_search", "src/qsearchlab/walks.py", "grid_walk_search",
         "oracle.charge(steps)", "oracle.charge(steps + 1)"),
    Site("walks.ed_walk.setup", "src/qsearchlab/walks.py", "ed_walk",
         "oracle.charge(subset_size)", "oracle.charge(subset_size + 1)"),
    Site("walks.ed_walk.steps", "src/qsearchlab/walks.py", "ed_walk",
         "oracle.charge(result.walk_steps)", "oracle.charge(result.walk_steps + 1)"),
    Site("amplify.amplitude_amplify", "src/qsearchlab/amplify.py", "amplitude_amplify",
         "queries = (2 * sum(rounds) + len(rounds)) * prep.cost + counter.query_count",
         "queries = (2 * sum(rounds) + len(rounds)) * prep.cost + counter.query_count + 1"),
    Site("applications.ed_base_run.samples", "src/qsearchlab/applications.py", "ed_base_run",
         "sample_spent = oracle.query_count - start",
         "sample_spent = oracle.query_count - start + 1"),
)


def function_span(source: str, qualname: str) -> tuple:
    """Character offsets of the definition of `qualname` in `source`."""
    body = ast.parse(source).body
    node = None
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
        if node is None:
            raise LookupError(f"no definition {qualname!r}")
        body = node.body
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts[node.lineno - 1], starts[node.end_lineno]


def mutate(source: str, site: Site) -> str:
    """`source` with the site's text replaced by its mutant; the text must occur once in its function."""
    start, end = function_span(source, site.function)
    count = source.count(site.text, start, end)
    if count != 1:
        raise LookupError(f"{site.name}: {site.text!r} occurs {count} times in {site.function}")
    at = source.index(site.text, start, end)
    return source[:at] + site.mutant + source[at + len(site.text):]


def failing_tests(root: Path) -> Set[str]:
    """Ids of the Tier-1 tests that fail or error in the copy at `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", DESELECTED,
         "--ignore", SITE_LIST_TESTS],
        cwd=root, env=env, capture_output=True, text=True)
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    if run.returncode not in (0, 1) or (run.returncode == 1 and not failed):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr}")
    return failed


def run_copy(site: Site = None) -> Set[str]:
    """Failing tests of a fresh copy of the repository, mutated at `site` if given."""
    with tempfile.TemporaryDirectory(prefix="mutate-charges-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (REPO / name).is_dir():
                shutil.copytree(REPO / name, root / name, ignore=ignore)
            else:
                shutil.copy2(REPO / name, root / name)
        if site is not None:
            path = root / site.path
            path.write_text(mutate(path.read_text(), site))
        return failing_tests(root)


def main() -> int:
    began = time.monotonic()
    baseline = run_copy()
    print(f"unmutated: {len(baseline)} failing ({time.monotonic() - began:.0f} s)", flush=True)
    if baseline:
        print("\n".join(sorted(baseline)))
        return 2
    bad = []
    for s in SITES:
        began = time.monotonic()
        failed = run_copy(s)
        named = failed - GOLDEN_TESTS
        verdict = "killed" if named else ("golden only" if failed else "SURVIVED")
        if not named:
            bad.append(s.name)
        print(f"{s.name}: {verdict}, {len(named)} named and {len(failed & GOLDEN_TESTS)} "
              f"golden-hash tests failed ({time.monotonic() - began:.0f} s)", flush=True)
        for test in sorted(named):
            print(f"    {test}")
    print(f"{len(SITES)} mutants: {len(SITES) - len(bad)} killed by a named test, "
          f"{len(bad)} not" + (f" ({', '.join(bad)})" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
