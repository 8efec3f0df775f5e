"""Every deterministic claim of the paper's evaluation, at bench scale.

Each driver in :mod:`repro.bench` owns its experiment and its shape
claims (``claims``).  The claims that compare wall-clock times are
judged by ``make paper`` only; the rest — byte model, node mix, hash
histogram, answer equality — do not depend on the machine, so they are
asserted here on the same ``run``/``claims`` path ``make paper`` takes.
"""

import pytest

from repro.bench import figure10
from repro.bench.paper import DRIVERS

SCALE = 0.12

#: driver -> keyword arguments of its ``run``.  Figure 10 is absent:
#: every one of its claims is timed.
RUNS = {"table1": {}, "figure9": {"repeats": 1}, "figure11": {},
        "ablations": {}}


@pytest.fixture(scope="module", params=list(RUNS))
def driver_claims(request):
    module = DRIVERS[request.param]
    return module.claims(module.run(SCALE, **RUNS[request.param]))


def test_deterministic_claims_hold(driver_claims):
    failed = [
        record for record in driver_claims
        if not record["timing"] and not record["held"]
    ]
    assert not failed


def test_claim_records_are_well_formed(driver_claims):
    ids = [record["id"] for record in driver_claims]
    assert len(ids) == len(set(ids))
    for record in driver_claims:
        assert set(record) == {"id", "held", "measured", "bound", "timing"}


def test_every_figure10_claim_is_timed():
    series = [
        figure10.UpdateSeries("XMark1", kind, 1, {1: 1.0, 1000: 2.0})
        for kind in ("string", "double")
    ]
    assert all(record["timing"] for record in figure10.claims(series))
    assert set(RUNS) == set(DRIVERS) - {"figure10"}
