"""The catalogue of planted faults in `faults.py` still fits the code, checked without planting any fault.

`python tests/faults.py` plants each fault in a copy and runs its tests;
this check covers what a refactor breaks most often, in the tier-1 run.
"""

import os
import re

from cli_cases import CASES
from faults import FAULTS, ROOT


def test_every_fault_snippet_occurs_once_and_its_tests_exist():
    """Each fault has its own name, its snippet occurs exactly once in its file, and each test it names is defined.

    A parametrized id names a row of `cli_cases.py`, the one table whose ids
    are known without collecting the tests.
    """
    assert len({fault.name for fault in FAULTS}) == len(FAULTS)
    rows = {case.name for case in CASES}
    for fault in FAULTS:
        with open(os.path.join(ROOT, "src", "tracelogic", fault.path), encoding="utf-8") as f:
            assert f.read().count(fault.snippet) == 1, fault.name
        for test in fault.tests:
            path, name = test.split("::")
            function, _, param = name.partition("[")
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                assert re.search(rf"^def {function}\(", f.read(), re.M), (fault.name, test)
            if param:
                assert (path, function) == ("tests/test_cli.py", "test_cli_case"), (fault.name, test)
                assert param.endswith("]") and param[:-1] in rows, (fault.name, test)
