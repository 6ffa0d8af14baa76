import contextlib
import io
import json

import pytest

from invforge.cli import main


@pytest.fixture(scope="session")
def verify_all():
    """(exit code, parsed stdout) of `verify-all --level desk`, run once for
    the per-criterion tests and the CLI test alike."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-all", "--level", "desk"])
    return code, json.loads(out.getvalue())
