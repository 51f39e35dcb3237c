"""The reference kernel that measures the host's speed."""

import gc

from perfbench import calibrate


def test_kernel_does_fixed_work():
    assert calibrate.kernel() == calibrate.kernel() == (20, 31832)


def test_sample_times_the_kernel_and_restores_the_collector():
    assert gc.isenabled()
    assert calibrate.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
