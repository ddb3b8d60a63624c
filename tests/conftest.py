import pytest

import trafficflow.solver as solver

STEP_BUDGET = 2000


@pytest.fixture
def steps_taken(monkeypatch):
    """Record solver.step calls; past STEP_BUDGET raise, so a run that never ends fails."""
    taken = []
    real_step = solver.step

    def counted(*args, **kwargs):
        taken.append(None)
        if len(taken) > STEP_BUDGET:
            raise AssertionError(f"run kept stepping past {STEP_BUDGET} steps")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counted)
    return taken
