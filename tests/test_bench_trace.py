"""The traced benchmark pass, end to end, on every workload.

A traced pass (`perfbench/run.py --trace 1`) checks each operation's output
as the untraced one does, and also that the traced stage spans under each
run cover the run's own `timings.json` total to within `STAGE_SUM_BOUND`.
Work added to a run outside its traced stages fails that second check, so
it should fail here first.  The pass writes only under the git-ignored
`perfbench/_work/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["desk-mono", "desk-random", "oracles"])
def test_traced_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
