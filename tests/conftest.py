import os

import pytest

from hapslink import (
    CloudConfig,
    Corridor,
    ModeConfigs,
    RadioParams,
    ScenarioGeometry,
    _fork,
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


def _in_the_child(patch, owner, name, replacement):
    """Patches owner's name so that only a forked child calls
    replacement(original, *args, **kwargs)."""
    original, parent = getattr(owner, name), os.getpid()

    def patched(*args, **kwargs):
        if os.getpid() == parent:
            return original(*args, **kwargs)
        return replacement(original, *args, **kwargs)

    patch.setattr(owner, name, patched)


def sends_half_a_frame_then_exits(code):
    """install(patch): a forked child then sends the first half of its
    first frame, and exits with code when it comes to its next frame. A
    child that has no next frame writes its end mark, and exits 0."""
    def install(patch):
        sent = []  # the child's own copy

        def half_frame(original, value):
            if sent:  # the half frame is out: the child ends
                os._exit(code)
            sent.append(value)
            frame = original(value)
            return frame[:len(frame) // 2]

        _in_the_child(patch, _fork, "_frame", half_frame)

    return install
