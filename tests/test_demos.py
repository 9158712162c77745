"""Every walkthrough under demos/ runs to completion and prints the bytes recorded for it."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The sha256 of each demo's stdout; they were the same under PYTHONHASHSEED 0, 1 and 2.
DIGESTS = {
    "01_formulas_and_traces.py": "bad30234c94099afcb8f3a893d2ba8168b0ca66de9bd877acfe873ef9d6718f0",
    "02_automata_pipeline.py": "3c419eb30444dba207e6d4809df9b6587df1d276fdf7a1cc256d054de2fbcaac",
    "03_past_operators.py": "33af26173bbb7e6755d705f6f2036d6c97fc676afc21882312ed72980faba46b",
    "04_plan_filtering.py": "bf484bfe6a640638ac9859e878ee5779084a5be56d33ebba6b971267cb374ac7",
    "05_metric_programs.py": "6ad3db046fc8181c709b251cedd55587a98d67459425934b3675a293d9e0b3f5",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[script.name]
