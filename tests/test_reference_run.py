"""A whole logreg run against the run composed from the plain-loop oracles.

``helpers.run_experiment_reference`` states the protocol, the joint-objective
instrumentation, the probe estimator and the bound rows as slow, obvious
loops.  Over the small configs of the config property test, with the model
fixed to logreg, ``run_experiment`` must write the same rounds, accuracy and
summary tables byte for byte, and the same bound table up to the flags the
hand-assembled bound builder does not write.  Where ``run_experiment``
raises, the reference raises the same type.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from fdilsim import run_experiment
from fdilsim.runio import BOUNDS_FILE, OUTPUT_FILES, _run_files
from helpers import reference_bound_flags, run_experiment_reference
from test_cli import small_configs


@settings(max_examples=200, deadline=None)
@given(text=small_configs(activations=("",)))
def test_a_logreg_run_writes_the_reference_runs_tables(text):
    with np.errstate(all="ignore"):
        try:
            artifacts = run_experiment(text)
        except ValueError as exc:  # a config error, or a run that diverges
            with pytest.raises(ValueError) as raised:
                run_experiment_reference(text)
            assert type(raised.value) is type(exc)
            return
        expected = run_experiment_reference(text)
    tables = {name: body for name, body in _run_files(artifacts, "").items() if name in OUTPUT_FILES}
    rows, expected_rows = tables.pop(BOUNDS_FILE).splitlines(), expected.pop(BOUNDS_FILE)
    assert tables == expected
    if expected_rows is None:  # the reference bound builder raised; the table flags the cap
        assert any(row.endswith(";vacuous=overflow") for row in rows)
    else:
        reference_bound_flags(rows, expected_rows.splitlines())
