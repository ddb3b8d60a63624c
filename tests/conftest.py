import pytest

import trafficflow.solver as solver

STEP_BUDGET = 2000


@pytest.fixture
def steps_taken(monkeypatch):
    """Record every solver step, of run and step alike; past STEP_BUDGET raise.

    Both advance one solver._March, so counting its advance sees each step,
    and a run that never ends fails.
    """
    taken = []
    real_advance = solver._March.advance

    def counted(march, *args, **kwargs):
        taken.append(None)
        if len(taken) > STEP_BUDGET:
            raise AssertionError(f"run kept stepping past {STEP_BUDGET} steps")
        return real_advance(march, *args, **kwargs)

    monkeypatch.setattr(solver._March, "advance", counted)
    return taken
