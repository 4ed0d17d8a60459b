import pytest

from hapslink import (
    CloudConfig,
    Corridor,
    ModeConfigs,
    RadioParams,
    ScenarioGeometry,
)

D_DEFAULT = 60000.0
H_DEFAULT = 20000.0


@pytest.fixture
def radio():
    return RadioParams()


@pytest.fixture
def corridor(radio):
    """The default 60 km corridor at 20 km altitude, stock radio."""
    return Corridor(D_DEFAULT, H_DEFAULT, radio)


@pytest.fixture
def configs():
    return ModeConfigs()


@pytest.fixture
def cloud():
    return CloudConfig()


@pytest.fixture
def geom_mid():
    return ScenarioGeometry(D=D_DEFAULT, H=H_DEFAULT, x=30000.0)


@pytest.fixture
def geom_gnb():
    """Platform directly above the gNB."""
    return ScenarioGeometry(D=D_DEFAULT, H=H_DEFAULT, x=D_DEFAULT)


def geom_at(x, D=D_DEFAULT, H=H_DEFAULT):
    return ScenarioGeometry(D=D, H=H, x=x)


def hop_snrs(corridor, x):
    """The relay's two full-power hop SNRs at offset x, from
    Corridor.columns."""
    (snr1,), (snr2,), _ = corridor.columns((x,))
    return snr1, snr2


def capacities(corridor, x, configs):
    """{mode: capacity_bps} of Corridor.rows at offset x."""
    return {row[0]: row[1] for row in corridor.rows(x, configs)}
