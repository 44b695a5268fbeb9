import json

import numpy as np
import pytest

from fracrel.errors import ConfigError, DomainError, SeamLeakError
from fracrel.grid import (
    GridFunction,
    SpaceTimeFunction,
    band_limited_noise,
    centered_d1,
    centered_d2,
    fourier_mode,
    gaussian,
    require_seam_decay,
    smooth_window,
    trapezoid,
    windowed_exponential,
)
from fracrel.report import CheckReport, finish_report
import time


def test_grid_layout():
    g = GridFunction(10.0, 8, np.zeros(8))
    assert g.h == pytest.approx(1.25)
    assert g.x[0] == -5.0
    assert g.x[-1] == pytest.approx(5.0 - 1.25)
    np.testing.assert_allclose(np.diff(g.x), g.h)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridFunction(0.0, 8, np.zeros(8))
    with pytest.raises(ConfigError):
        GridFunction(10.0, 12, np.zeros(12))  # not a power of two
    with pytest.raises(ConfigError):
        GridFunction(10.0, 8, np.zeros(9))
    with pytest.raises(ConfigError):
        GridFunction(10.0, 8, np.full(8, np.nan))


def test_trapezoid_kills_modes():
    f = fourier_mode(20.0, 256, 3, kind="cos")
    assert abs(trapezoid(f)) < 1e-12
    one = GridFunction(20.0, 256, np.ones(256))
    assert trapezoid(one) == pytest.approx(20.0)


def test_smooth_window_profile():
    w = smooth_window(80.0, 4096, inner=20.0, outer=30.0)
    x = w.x
    assert np.all(w.values[np.abs(x) <= 20.0] == 1.0)
    assert np.all(w.values[np.abs(x) >= 30.0] == 0.0)
    assert np.all((w.values >= 0.0) & (w.values <= 1.0))
    # symmetric up to grid offset
    mid = np.argmin(np.abs(x))
    assert w.values[mid] == 1.0


def test_smooth_window_validation():
    with pytest.raises(DomainError):
        smooth_window(80.0, 256, inner=30.0, outer=20.0)
    with pytest.raises(DomainError):
        smooth_window(80.0, 256, inner=10.0, outer=50.0)


def test_seam_guard():
    g = gaussian(40.0, 1024, sigma=1.0)
    require_seam_decay(g)  # decays to ~1e-87, fine
    bad = GridFunction(40.0, 1024, np.ones(1024))
    with pytest.raises(SeamLeakError):
        require_seam_decay(bad)


def test_windowed_exponential_seam_safe():
    f = windowed_exponential(40.0, 2048, lam=0.9)
    require_seam_decay(f)
    # flat part reproduces exp(lam x) exactly
    x = f.x
    core = np.abs(x) <= 4.0
    np.testing.assert_allclose(f.values[core], np.exp(0.9 * x[core]),
                               rtol=1e-12)


def test_space_time_function_validation():
    times = np.linspace(0.0, 1.0, 12)
    vals = np.zeros((12, 16))
    f = SpaceTimeFunction(8.0, 16, times, vals)
    assert f.nt == 12
    assert f.slice(3).n == 16
    np.testing.assert_array_equal(f.x, GridFunction(8.0, 16, vals[0]).x)
    # few or uneven samples are the parabolic check's concern, not the type's
    assert SpaceTimeFunction(8.0, 16, times[:5], vals[:5]).nt == 5
    with pytest.raises(ConfigError):
        SpaceTimeFunction(8.0, 16, times[::-1], vals)
    with pytest.raises(ConfigError):
        SpaceTimeFunction(8.0, 16, np.concatenate([times[:1], times[:-1]]),
                          vals)
    for bad in (np.nan, np.inf, -np.inf):
        broken = vals.copy()
        broken[7, 3] = bad
        with pytest.raises(ConfigError):
            SpaceTimeFunction(8.0, 16, times, broken)
        with pytest.raises(ConfigError):
            SpaceTimeFunction(8.0, 16, np.where(times == times[4], bad,
                                                times), vals)
    for shape in ((12, 8), (11, 16), (12,), (12, 16, 1)):
        with pytest.raises(ConfigError):
            SpaceTimeFunction(8.0, 16, times, np.zeros(shape))
    with pytest.raises(ConfigError):
        SpaceTimeFunction(8.0, 16, times[None, :], vals)


def test_band_limited_noise_determinism_and_band():
    a = band_limited_noise(40.0, 1024, k_max=50,
                           rng=np.random.default_rng(42))
    b = band_limited_noise(40.0, 1024, k_max=50,
                           rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.values, b.values)
    # band-limitation holds for the raw field; the window smears it
    raw = band_limited_noise(40.0, 1024, k_max=50,
                             rng=np.random.default_rng(7), windowed=False)
    spec = np.fft.rfft(raw.values)
    assert np.max(np.abs(spec[51:])) < 1e-10 * np.max(np.abs(spec))
    assert np.max(np.abs(raw.values)) == pytest.approx(1.0)


def test_centered_derivatives_converge():
    f = gaussian(40.0, 4096, sigma=2.0)
    x = f.x
    core = np.exp(-x * x / 8.0)
    d1 = centered_d1(f)
    d2 = centered_d2(f)
    assert np.max(np.abs(d1 - (-0.25 * x * core))) < 1e-4
    assert np.max(np.abs(d2 - ((-0.25 + x * x / 16.0) * core))) < 1e-4


def test_report_serialization():
    rep = finish_report(
        name="demo.check",
        inputs={"s": 0.5, "arr": np.arange(3)},
        measured={"value": 1.0, "nan_field": float("nan")},
        tolerance=1e-6,
        violation=2e-7,
        witness={"x": 1.0},
        t_start=time.perf_counter(),
    )
    assert rep.passed
    blob = json.loads(rep.to_json())
    assert blob["name"] == "demo.check"
    assert blob["inputs"]["arr"] == [0, 1, 2]
    assert blob["measured"]["nan_field"] == "nan"
    assert "PASS" in str(rep)


def test_report_failure_keeps_witness():
    rep = finish_report(
        name="demo.fail",
        inputs={},
        measured={},
        tolerance=1e-6,
        violation=0.5,
        witness={"bad_point": 3.0},
        t_start=time.perf_counter(),
    )
    assert not rep.passed
    assert rep.witness == {"bad_point": 3.0}
    assert "FAIL" in str(rep)
