"""Workload definitions: each workload is a fixed list of CLI argv lists.

One pass of a workload runs its argv lists in order, each through
``kstpde.cli.main`` with ``--out`` pointing at a fresh directory.  Only
``tables_deep`` has random input: the seed draws the x2 row of its k=2
solve from (0.05, 0.95).  The k=3 and k=4 solves stay at x2=0.5 and mesh
201 so that their known failures neither swing between seeds nor
dominate the pass time once they are fixed.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep_fine", "sweep_wide", "tables_deep", "checks")


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of workload ``name`` for ``seed``."""
    if name == "sweep_fine":
        return [["sweep", "--k", "1", "--x2-grid", "21", "--mesh", "1001"]]
    if name == "sweep_wide":
        return [["sweep", "--k", "1", "--x2-grid", "201", "--mesh", "101"]]
    if name == "tables_deep":
        x2 = random.Random(seed).uniform(0.05, 0.95)
        return [
            ["psi", "--k", "5"],
            ["solve", "--k", "2", "--x2", "%.6f" % x2, "--mesh", "1001"],
            ["solve", "--k", "3", "--x2", "0.5", "--mesh", "201"],
            ["solve", "--k", "4", "--x2", "0.5", "--mesh", "201"],
        ]
    if name == "checks":
        return [["verify"], ["taylor-check"]]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
