"""A whole run against the run composed from the plain-loop oracles.

``helpers.run_experiment_reference`` states the protocol, the joint-objective
instrumentation, the probe estimator and the bound rows as slow, obvious
loops.  Over the small configs of the config property test, with the model
fixed to logreg, ``run_experiment`` must write the same rounds, accuracy and
summary tables byte for byte, and the same bound table up to the flags the
hand-assembled bound builder does not write.  With an mlp1 model the float
cells agree within a relative tolerance and every other cell exactly.
Where ``run_experiment`` raises, the reference raises the same type.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from fdilsim import run_experiment
from fdilsim.runio import BOUNDS_FILE, OUTPUT_FILES, SUMMARY_FILE, _run_files
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


# A padded hidden-layer product can differ in its last bits from the
# reference's product over the client's own rows, since BLAS sums it in
# another order (see the ``client`` module docstring), and the few rounds of
# a small config carry that on.  Over 3,000 drawn configs the largest
# relative gap of a float cell was below 3e-15, and no drawn rate turned it
# into chaos, so no rate is bounded; RTOL leaves a wide margin above that.
RTOL = 1e-12
INTEGER = re.compile(r"-?[0-9]+")


def _close(text: str, expected: str) -> bool:
    """Two float tokens within RTOL; integer and text tokens never are."""
    if INTEGER.fullmatch(text) and INTEGER.fullmatch(expected):
        return False
    try:
        return math.isclose(float(text), float(expected), rel_tol=RTOL)
    except ValueError:
        return False


def _snapped(text: str, expected: str) -> str:
    """``text`` with each float token that is within RTOL of its token in ``expected`` written as that token.

    Tokens are separated by ``,``, ``;`` and ``=``, so the float values inside
    a bound row's inputs are tokens too.  Tokens past the end of the expected
    line, such as a flag the reference does not write, stay as they are.
    """
    lines = []
    for line, old in zip(text.splitlines(), expected.splitlines()):
        parts, old_parts = re.split("([,;=])", line), re.split("([,;=])", old)
        kept = [b if a != b and _close(a, b) else a for a, b in zip(parts, old_parts)]
        lines.append("".join(kept + parts[len(old_parts) :]))
    assert len(lines) == len(text.splitlines()) == len(expected.splitlines())
    return "\n".join(lines) + "\n"


def _without_task_checksums(text: str) -> str:
    """A summary table without its ``checksum_task_<i>`` rows, the digests of the task models' float bits."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("checksum_task_"))


@settings(max_examples=200, deadline=None)
@given(text=small_configs(activations=("tanh", "relu")))
def test_an_mlp1_run_writes_the_reference_runs_tables_within_a_tolerance(text):
    # Padded configs are included.  The task models' checksums are left out:
    # a last-bit difference moves a digest by any amount.
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
    rows, expected_rows = tables.pop(BOUNDS_FILE), expected.pop(BOUNDS_FILE)
    tables[SUMMARY_FILE] = _without_task_checksums(tables[SUMMARY_FILE])
    expected[SUMMARY_FILE] = _without_task_checksums(expected[SUMMARY_FILE])
    assert {name: _snapped(body, expected[name]) for name, body in tables.items()} == expected
    if expected_rows is None:  # the reference bound builder raised; the table flags the cap
        assert any(row.endswith(";vacuous=overflow") for row in rows.splitlines())
    else:
        reference_bound_flags(_snapped(rows, expected_rows).splitlines(), expected_rows.splitlines())
