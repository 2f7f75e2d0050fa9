"""Tests for the signal-processing toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComplexSpectrum, SampleSet, Spectrum, UnitError
from repro.core.toolbox.signal import (
    FFT,
    AccumStat,
    AmplitudeSpectrum,
    ChirpGenerator,
    Correlate,
    Decimate,
    Gain,
    GaussianNoise,
    HighPass,
    InverseFFT,
    LowPass,
    Mixer,
    Offset,
    PowerSpectrum,
    SampleSetToGraph,
    SpectrumToGraph,
    UniformNoise,
    Wave,
    WindowFn,
)


def sine(freq=64.0, n=256, fs=1024.0):
    t = np.arange(n) / fs
    return SampleSet(data=np.sin(2 * np.pi * freq * t), sampling_rate=fs)


class TestWave:
    def test_sine_frequency(self):
        w = Wave(frequency=64.0, samples=1024, sampling_rate=1024.0)
        (out,) = w.process([])
        spec = np.abs(np.fft.rfft(out.data))
        assert spec.argmax() == 64

    def test_phase_continuity_across_frames(self):
        w = Wave(frequency=10.0, samples=100, sampling_rate=1000.0)
        (f1,) = w.process([])
        (f2,) = w.process([])
        glued = np.concatenate([f1.data, f2.data])
        expected = np.sin(2 * np.pi * 10.0 * np.arange(200) / 1000.0)
        np.testing.assert_allclose(glued, expected, atol=1e-12)

    def test_t0_advances(self):
        w = Wave(samples=128, sampling_rate=256.0)
        (f1,) = w.process([])
        (f2,) = w.process([])
        assert f1.t0 == 0.0
        assert f2.t0 == pytest.approx(0.5)

    def test_square_and_sawtooth(self):
        for kind in ("square", "sawtooth"):
            w = Wave(waveform=kind, samples=64)
            (out,) = w.process([])
            assert np.abs(out.data).max() <= 1.0 + 1e-12

    def test_unknown_waveform(self):
        w = Wave(waveform="triangle-ish")
        with pytest.raises(UnitError):
            w.process([])

    def test_checkpoint_restores_frame_counter(self):
        w = Wave(samples=64)
        w.process([])
        w.process([])
        state = w.checkpoint()
        w2 = Wave(samples=64)
        w2.restore(state)
        (a,) = w.process([])
        (b,) = w2.process([])
        np.testing.assert_array_equal(a.data, b.data)

    def test_bad_frequency_rejected(self):
        from repro.core import ParameterError

        with pytest.raises(ParameterError):
            Wave(frequency=-3.0)


class TestNoise:
    def test_gaussian_noise_statistics(self):
        g = GaussianNoise(sigma=2.0, seed=1)
        sig = SampleSet(data=np.zeros(50_000), sampling_rate=1.0)
        (out,) = g.process([sig])
        assert out.data.std() == pytest.approx(2.0, rel=0.05)
        assert abs(out.data.mean()) < 0.05

    def test_noise_reproducible_by_seed(self):
        a = GaussianNoise(sigma=1.0, seed=42).process([sine()])[0]
        b = GaussianNoise(sigma=1.0, seed=42).process([sine()])[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = GaussianNoise(sigma=1.0, seed=1).process([sine()])[0]
        b = GaussianNoise(sigma=1.0, seed=2).process([sine()])[0]
        assert not np.array_equal(a.data, b.data)

    def test_noise_checkpoint_resumes_stream(self):
        g = GaussianNoise(sigma=1.0, seed=7)
        g.process([sine()])
        state = g.checkpoint()
        next_direct = g.process([sine()])[0]
        g2 = GaussianNoise(sigma=1.0, seed=7)
        g2.restore(state)
        next_restored = g2.process([sine()])[0]
        np.testing.assert_array_equal(next_direct.data, next_restored.data)

    def test_uniform_noise_bounds(self):
        u = UniformNoise(width=1.0, seed=0)
        sig = SampleSet(data=np.zeros(10_000), sampling_rate=1.0)
        (out,) = u.process([sig])
        assert out.data.min() >= -0.5 and out.data.max() <= 0.5

    def test_sigma_zero_passthrough(self):
        g = GaussianNoise(sigma=0.0, seed=0)
        sig = sine()
        (out,) = g.process([sig])
        np.testing.assert_array_equal(out.data, sig.data)


class TestFFTChain:
    def test_fft_inverse_round_trip(self):
        sig = sine()
        (spec,) = FFT().process([sig])
        (back,) = InverseFFT().process([spec])
        np.testing.assert_allclose(back.data, sig.data, atol=1e-10)
        assert back.sampling_rate == pytest.approx(sig.sampling_rate)

    def test_fft_df(self):
        sig = sine(n=512, fs=1024.0)
        (spec,) = FFT().process([sig])
        assert spec.df == pytest.approx(2.0)
        assert len(spec) == 257

    def test_fft_rejects_empty(self):
        with pytest.raises(UnitError):
            FFT().process([SampleSet(data=np.zeros(0))])

    def test_power_spectrum_peak_location(self):
        (spec,) = FFT().process([sine(freq=64.0, n=1024, fs=1024.0)])
        (power,) = PowerSpectrum().process([spec])
        assert power.frequencies()[power.data.argmax()] == pytest.approx(64.0)

    def test_amplitude_spectrum_sine_height(self):
        # A unit sine has one-sided amplitude 0.5 at its frequency bin.
        (spec,) = FFT().process([sine(freq=64.0, n=1024, fs=1024.0)])
        (amp,) = AmplitudeSpectrum().process([spec])
        assert amp.data.max() == pytest.approx(0.5, rel=1e-6)

    def test_fft_cost_model_superlinear(self):
        fft = FFT()
        assert fft.estimated_flops(2**20) > 100 * fft.estimated_flops(2**10)


class TestAccumStat:
    def test_running_mean(self):
        acc = AccumStat()
        s1 = Spectrum(data=np.array([1.0, 2.0]), df=1.0)
        s2 = Spectrum(data=np.array([3.0, 4.0]), df=1.0)
        (m1,) = acc.process([s1])
        (m2,) = acc.process([s2])
        np.testing.assert_allclose(m1.data, [1.0, 2.0])
        np.testing.assert_allclose(m2.data, [2.0, 3.0])
        assert acc.count == 2

    def test_shape_change_rejected(self):
        acc = AccumStat()
        acc.process([Spectrum(data=np.zeros(4))])
        with pytest.raises(UnitError):
            acc.process([Spectrum(data=np.zeros(8))])

    def test_checkpoint_round_trip(self):
        acc = AccumStat()
        acc.process([Spectrum(data=np.array([2.0, 4.0]), df=0.5)])
        state = acc.checkpoint()
        fresh = AccumStat()
        fresh.restore(state)
        (m,) = fresh.process([Spectrum(data=np.array([4.0, 8.0]), df=0.5)])
        np.testing.assert_allclose(m.data, [3.0, 6.0])
        assert m.df == 0.5

    def test_reset_clears(self):
        acc = AccumStat()
        acc.process([Spectrum(data=np.ones(4))])
        acc.reset()
        assert acc.count == 0

    def test_noise_floor_shrinks_with_iterations(self):
        """The Fig. 2 effect: averaging pulls the 64 Hz peak out of noise."""
        wave = Wave(frequency=64.0, amplitude=0.2, samples=1024, sampling_rate=1024.0)
        noise = GaussianNoise(sigma=2.0, seed=3)
        fft, power, acc = FFT(), PowerSpectrum(), AccumStat()

        def snr_after(n_iters):
            for unit in (wave, noise, fft, power, acc):
                unit.reset()
            for _ in range(n_iters):
                (s,) = wave.process([])
                (noisy,) = noise.process([s])
                (spec,) = fft.process([noisy])
                (p,) = power.process([spec])
                (avg,) = acc.process([p])
            signal_bin = 64
            mask = np.ones(len(avg.data), bool)
            mask[signal_bin - 2 : signal_bin + 3] = False
            mask[:3] = False
            return avg.data[signal_bin] / avg.data[mask].std()

        assert snr_after(20) > 2.0 * snr_after(1)


class TestFiltersAndTransforms:
    def test_gain_and_offset(self):
        sig = sine()
        (g,) = Gain(factor=3.0).process([sig])
        np.testing.assert_allclose(g.data, 3.0 * sig.data)
        (o,) = Offset(offset=1.5).process([sig])
        np.testing.assert_allclose(o.data, sig.data + 1.5)

    def test_mixer_adds(self):
        a, b = sine(freq=10.0), sine(freq=20.0)
        (m,) = Mixer().process([a, b])
        np.testing.assert_allclose(m.data, a.data + b.data)

    def test_mixer_rate_mismatch(self):
        a = sine(fs=1024.0)
        b = sine(fs=512.0)
        with pytest.raises(UnitError):
            Mixer().process([a, b])

    def test_window_reduces_edges(self):
        sig = SampleSet(data=np.ones(64), sampling_rate=1.0)
        (w,) = WindowFn(window="hann").process([sig])
        assert w.data[0] == pytest.approx(0.0)
        assert w.data[32] == pytest.approx(1.0, rel=0.01)

    def test_window_unknown(self):
        with pytest.raises(UnitError):
            WindowFn(window="mystery").process([sine()])

    def test_lowpass_kills_high_tone(self):
        low, high = sine(freq=10.0, n=1024), sine(freq=200.0, n=1024)
        (mixed,) = Mixer().process([low, high])
        (filtered,) = LowPass(cutoff=50.0).process([mixed])
        np.testing.assert_allclose(filtered.data, low.data, atol=0.01)

    def test_highpass_kills_low_tone(self):
        low, high = sine(freq=10.0, n=1024), sine(freq=200.0, n=1024)
        (mixed,) = Mixer().process([low, high])
        (filtered,) = HighPass(cutoff=50.0).process([mixed])
        np.testing.assert_allclose(filtered.data, high.data, atol=0.01)

    def test_decimate(self):
        sig = sine(n=256, fs=1024.0)
        (d,) = Decimate(factor=4).process([sig])
        assert len(d) == 64
        assert d.sampling_rate == pytest.approx(256.0)
        np.testing.assert_array_equal(d.data, sig.data[::4])

    def test_correlate_peak_at_lag(self):
        rng = np.random.default_rng(0)
        template = SampleSet(data=rng.normal(size=64), sampling_rate=1.0)
        lag = 100
        data = np.zeros(512)
        data[lag : lag + 64] = template.data
        (corr,) = Correlate().process(
            [SampleSet(data=data, sampling_rate=1.0), template]
        )
        assert corr.data.argmax() == lag


class TestChirp:
    def test_chirp_sweeps_up(self):
        c = ChirpGenerator(f0=10.0, f1=100.0, duration=2.0, sampling_rate=1024.0)
        (sig,) = c.process([])
        assert len(sig) == 2048
        # Instantaneous frequency early vs late via zero-crossing density.
        first, last = sig.data[:256], sig.data[-256:]
        zc = lambda x: np.sum(np.abs(np.diff(np.sign(x)))) / 2
        assert zc(last) > 3 * zc(first)


class TestGraphBridges:
    def test_spectrum_to_graph(self):
        spec = Spectrum(data=np.arange(4.0), df=2.0)
        (g,) = SpectrumToGraph(label="demo").process([spec])
        np.testing.assert_allclose(g.x, [0, 2, 4, 6])
        assert g.label == "demo"

    def test_sampleset_to_graph(self):
        sig = sine(n=16)
        (g,) = SampleSetToGraph().process([sig])
        np.testing.assert_allclose(g.x, sig.times())


@given(
    st.integers(min_value=16, max_value=1024),
    st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=20, deadline=None)
def test_fft_round_trip_property(n, fs):
    if n % 2:
        n += 1
    rng = np.random.default_rng(n)
    sig = SampleSet(data=rng.normal(size=n), sampling_rate=fs)
    (spec,) = FFT().process([sig])
    (back,) = InverseFFT().process([spec])
    np.testing.assert_allclose(back.data, sig.data, atol=1e-9)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=32))
@settings(max_examples=30)
def test_accumstat_mean_property(values):
    """AccumStat's output equals the true running mean of its inputs."""
    acc = AccumStat()
    seen = []
    for v in values:
        seen.append(v)
        (m,) = acc.process([Spectrum(data=np.array([v]))])
        np.testing.assert_allclose(m.data[0], np.mean(seen), rtol=1e-9, atol=1e-9)


# -- the filters' stop-band cache ---------------------------------------------


def reference_filter(unit, sig):
    """The uncached filter: rebuild frequencies and mask on every call."""
    spec = np.fft.rfft(sig.data)
    freqs = np.fft.rfftfreq(len(sig.data), d=1.0 / sig.sampling_rate)
    spec[~unit._mask(freqs)] = 0.0
    return np.fft.irfft(spec, n=len(sig.data))


class TestFilterStopBandCache:
    # Bin width is fs / n, so e.g. 1024 / 256 = 4 Hz puts 100 Hz on a bin
    # edge, as does 1 Hz for n = fs = 255.
    @pytest.mark.parametrize("cls", [LowPass, HighPass])
    @pytest.mark.parametrize("n", [1, 2, 255, 256])
    @pytest.mark.parametrize("fs", [1.0, 255.0, 1024.0, 3000.5])
    @pytest.mark.parametrize("cutoff", [0.25, 1.0, 10.0, 100.0, 400.0, 1e9])
    def test_bit_equal_to_uncached(self, cls, n, fs, cutoff):
        rng = np.random.default_rng(n)
        unit = cls(cutoff=cutoff)
        for _ in range(2):  # the second call hits the cache
            sig = SampleSet(data=rng.normal(size=n), sampling_rate=fs)
            (out,) = unit.process([sig])
            np.testing.assert_array_equal(out.data, reference_filter(unit, sig))
            assert out.data.tobytes() == reference_filter(unit, sig).tobytes()

    @pytest.mark.parametrize("cls", [LowPass, HighPass])
    def test_new_length_and_rate_rebuild_the_band(self, cls):
        unit = cls(cutoff=100.0)
        rng = np.random.default_rng(3)
        for n, fs in [(256, 1024.0), (255, 1024.0), (255, 512.0), (256, 1024.0)]:
            sig = SampleSet(data=rng.normal(size=n), sampling_rate=fs)
            (out,) = unit.process([sig])
            assert out.data.tobytes() == reference_filter(unit, sig).tobytes()

    @pytest.mark.parametrize("cls", [LowPass, HighPass])
    def test_reparam_between_calls_changes_output(self, cls):
        sig = sine(freq=152.0, n=256)  # between the two cutoffs
        unit = cls(cutoff=100.0)
        (before,) = unit.process([sig])
        unit.set_param("cutoff", 200.0)
        (after,) = unit.process([sig])
        (fresh,) = cls(cutoff=200.0).process([sig])
        assert after.data.tobytes() == fresh.data.tobytes()
        assert abs(np.abs(before.data).max() - np.abs(after.data).max()) > 0.5

    def test_cache_is_not_checkpointed(self):
        unit = LowPass(cutoff=100.0)
        unit.process([sine()])
        assert unit.checkpoint() == {}
