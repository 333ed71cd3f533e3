"""The benchmark's output checks on quick cases of its workloads.

They hold every `cvdistill run` output to its artifact count and config
hash, its analytic rows to the closed-form success probabilities, and its
Monte Carlo rows to binomial bands on the kept counts,
pre-selection histograms that sum to the shot count, post-selection
histograms that sum to the kept count, and the paper's 9 SNU anchors.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cvbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cvdistill.cli import main  # noqa: E402


@pytest.mark.parametrize("name", ["headcount_t9", "sweep_mc", "analytic_fine"])
def test_quick_cases_pass_the_benchmark_checks(name, tmp_path, capsys):
    for case in workloads.build(name, 7, quick=True):
        path = tmp_path / f"{case.label}.json"
        path.write_text(json.dumps(case.config))
        out = tmp_path / case.label
        checks.check_output(main(["run", "--config", str(path), "--out", str(out)]), str(out), case)
