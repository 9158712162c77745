"""The catalogue of planted faults in `faults.py` still fits the code, checked without planting any fault.

`python tests/faults.py` plants each fault in a copy and runs its tests;
this check covers what a refactor breaks most often, in the tier-1 run.
"""

import os
import re

from faults import FAULTS, ROOT


def test_every_fault_snippet_occurs_once_and_its_tests_exist():
    """Each fault has its own name, its snippet occurs exactly once in its file, and each test it names is defined."""
    assert len({fault.name for fault in FAULTS}) == len(FAULTS)
    for fault in FAULTS:
        with open(os.path.join(ROOT, "src", "tracelogic", fault.path), encoding="utf-8") as f:
            assert f.read().count(fault.snippet) == 1, fault.name
        for test in fault.tests:
            path, name = test.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                assert re.search(rf"^def {name.split('[')[0]}\(", f.read(), re.M), (fault.name, test)
