"""Smoke test: the quick demo scripts run to completion."""

from pathlib import Path
import runpy

import numpy as np
import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_dynamics_and_monodromy.py",
        "02_torque_dsl.py",
        "03_averaged_fields_and_zeros.py",
        "04_orbit_verification.py",
    ],
)
def test_demo_runs(script, capsys):
    # the demos set numpy print options; keep them from leaking into other tests
    with np.printoptions():
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
