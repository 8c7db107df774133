"""Feature front end: framing geometry, mel scale pins, DCT identities,
the ridge corpus, WAV loading, and the EDSET container."""

import json
import struct
import wave as wave_mod

import numpy as np
import pytest

from emodarts.errors import ContractViolation, DataError
from emodarts.features import (CLIP_SAMPLES, Dataset, hz_to_mel, load_edset,
                               load_wav, mel_filterbank, mel_to_hz, mfcc,
                               pad_or_truncate, pool_downsample, save_edset,
                               synth_dataset)


class TestPadOrTruncate:
    def test_short_clip_padded_at_tail(self):
        x = np.ones(100)
        y = pad_or_truncate(x)
        assert y.shape == (CLIP_SAMPLES,)
        assert np.all(y[:100] == 1.0) and np.all(y[100:] == 0.0)

    def test_long_clip_truncated(self):
        x = np.arange(CLIP_SAMPLES + 50, dtype=float)
        y = pad_or_truncate(x)
        assert y.shape == (CLIP_SAMPLES,)
        assert y[-1] == CLIP_SAMPLES - 1

    def test_exact_clip_unchanged(self):
        x = np.random.default_rng(0).normal(size=CLIP_SAMPLES)
        assert np.array_equal(pad_or_truncate(x), x)


class TestMelScale:
    def test_knee_pin(self):
        # both branches meet at 1 kHz with value 15
        assert hz_to_mel(1000.0) == pytest.approx(15.0, abs=1e-12)
        assert mel_to_hz(15.0) == pytest.approx(1000.0, rel=1e-12)

    def test_linear_region_pin(self):
        # below the knee one mel is 200/3 Hz
        assert hz_to_mel(200.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
        assert mel_to_hz(7.5) == pytest.approx(500.0, rel=1e-12)

    def test_log_region_pin(self):
        # 6400 Hz sits exactly one log step above the knee
        assert hz_to_mel(6400.0) == pytest.approx(42.0, rel=1e-12)
        assert mel_to_hz(42.0) == pytest.approx(6400.0, rel=1e-12)

    def test_round_trip(self):
        f = np.linspace(10.0, 8192.0, 257)
        assert np.allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-10)

    def test_monotone(self):
        f = np.linspace(0.0, 8192.0, 4096)
        assert np.all(np.diff(hz_to_mel(f)) > 0)


class TestFilterbank:
    def test_shape_and_sign(self):
        fb = mel_filterbank()
        assert fb.shape == (128, 513)
        assert np.all(fb >= 0.0)
        assert np.all(fb.max(axis=1) > 0.0)

    def test_triangle_values_match_independent_formula(self):
        fb = mel_filterbank()
        pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8192.0), 130))
        freqs = np.arange(513) * (16384 / 1024)
        for m in (0, 31, 64, 127):
            lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
            tri = np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid))
            expect = np.maximum(tri, 0.0) * 2.0 / (hi - lo)
            assert np.allclose(fb[m], expect, rtol=1e-10, atol=1e-14)

    def test_support_inside_triangle(self):
        fb = mel_filterbank()
        pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8192.0), 130))
        freqs = np.arange(513) * (16384 / 1024)
        outside = (freqs[None, :] <= pts[:-2, None] - 1e-9) \
            | (freqs[None, :] >= pts[2:, None] + 1e-9)
        assert np.all(fb[outside] == 0.0)

    def test_area_normalization(self):
        # unit area per filter once sampled weights are scaled by bin width
        fb = mel_filterbank()
        areas = fb.sum(axis=1) * (16384 / 1024)
        wide = areas[40:]          # wide filters sample the triangle densely
        assert np.all(np.abs(wide - 1.0) < 0.08)

    def test_pure_tone_lights_matching_filter(self):
        t = np.arange(CLIP_SAMPLES) / 16384
        tone = np.sin(2 * np.pi * 1000.0 * t)
        frames = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([tone, np.zeros(768)]), 1024)[::256]
        n = np.arange(1024)
        win = 0.5 - 0.5 * np.cos(2 * np.pi * n / 1024)
        power = np.abs(np.fft.rfft(frames * win, axis=1)) ** 2
        mel = power[:256] @ mel_filterbank().T
        peak = int(np.argmax(mel.mean(axis=0)))
        centers = mel_to_hz(np.linspace(hz_to_mel(0.0),
                                        hz_to_mel(8192.0), 130))[1:-1]
        assert abs(centers[peak] - 1000.0) < 40.0


class TestMfcc:
    def test_output_shape(self):
        x = np.random.default_rng(1).normal(size=CLIP_SAMPLES)
        assert mfcc(x).shape == (128, 512)

    def test_shape_independent_of_input_length(self):
        rng = np.random.default_rng(2)
        assert mfcc(rng.normal(size=1000)).shape == (128, 512)
        assert mfcc(rng.normal(size=200000)).shape == (128, 512)

    def test_silence_hits_log_floor(self):
        # zero signal: every mel value is floored, so the log-mel matrix is
        # the constant ln(1e-10) and the orthonormal DCT leaves a single
        # nonzero row of ln(1e-10) * sqrt(128)
        feat = mfcc(np.zeros(CLIP_SAMPLES))
        assert np.allclose(feat[0], np.log(1e-10) * np.sqrt(128.0), rtol=1e-12)
        assert np.allclose(feat[1:], 0.0, atol=1e-9)

    def test_dct_preserves_column_norm(self):
        x = np.random.default_rng(3).normal(size=CLIP_SAMPLES)
        feat = mfcc(x)
        total = (512 - 1) * 256 + 1024
        padded = np.concatenate([pad_or_truncate(x),
                                 np.zeros(total - CLIP_SAMPLES)])
        frames = np.lib.stride_tricks.sliding_window_view(padded, 1024)[::256]
        n = np.arange(1024)
        win = 0.5 - 0.5 * np.cos(2 * np.pi * n / 1024)
        power = np.abs(np.fft.rfft(frames * win, axis=1)) ** 2
        logmel = np.log(np.maximum(power @ mel_filterbank().T, 1e-10)).T
        assert np.allclose(np.linalg.norm(feat, axis=0),
                           np.linalg.norm(logmel, axis=0), rtol=1e-10)

    def test_deterministic(self):
        x = np.random.default_rng(4).normal(size=CLIP_SAMPLES)
        assert np.array_equal(mfcc(x), mfcc(x.copy()))


class TestPoolDownsample:
    def test_hand_case(self):
        m = np.array([[1.0, 5.0, 2.0, 3.0, -1.0, 0.0, 9.0, 4.0],
                      [0.0, -2.0, -3.0, -1.0, 7.0, 7.0, 6.0, 8.0]])
        out = pool_downsample(m, factor=4)
        assert np.array_equal(out, [[5.0, 9.0], [0.0, 8.0]])

    def test_full_pipeline_shape(self):
        x = np.random.default_rng(5).normal(size=CLIP_SAMPLES)
        assert pool_downsample(mfcc(x)).shape == (128, 128)

    def test_rejects_indivisible_width(self):
        with pytest.raises(ContractViolation):
            pool_downsample(np.zeros((4, 10)), factor=4)


def _write_wav(path, samples, rate=16384, channels=1, width=2):
    with wave_mod.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(samples).astype("<i2").tobytes())


class TestLoadWav:
    def test_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        _write_wav(p, [0, 16384, -16384, 32767, -32768])
        x = load_wav(p)
        assert np.allclose(x, [0.0, 0.5, -0.5, 32767 / 32768, -1.0])

    def test_native_rate_passthrough(self, tmp_path):
        p = tmp_path / "b.wav"
        vals = np.arange(-100, 100, dtype=np.int16)
        _write_wav(p, vals)
        assert np.allclose(load_wav(p), vals / 32768.0)

    def test_resample_doubles_length_by_interpolation(self, tmp_path):
        p = tmp_path / "c.wav"
        _write_wav(p, [0, 16384], rate=8192)
        x = load_wav(p)
        # grid points 0, 1/16384, 2/16384, 3/16384 against sources at
        # 0 and 1/8192: midpoint interpolates, the tail clamps
        assert np.allclose(x, [0.0, 0.25, 0.5, 0.5])

    def test_rejects_stereo(self, tmp_path):
        p = tmp_path / "d.wav"
        _write_wav(p, np.zeros(20, dtype=np.int16), channels=2)
        with pytest.raises(DataError):
            load_wav(p)

    def test_rejects_8bit(self, tmp_path):
        p = tmp_path / "e.wav"
        with wave_mod.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16384)
            fh.writeframes(bytes(64))
        with pytest.raises(DataError):
            load_wav(p)

    def test_rejects_zero_frame_rate(self, tmp_path):
        # a hand-written 44-byte header (mono, 16-bit, 0 Hz) and 4 frames:
        # the wave module refuses to write a zero rate, but reads one
        p = tmp_path / "z.wav"
        data = np.array([0, 100, -100, 0], dtype="<i2").tobytes()
        p.write_bytes(struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ",
            16, 1, 1, 0, 0, 2, 16, b"data", len(data)) + data)
        with pytest.raises(DataError, match="frame rate 0"):
            load_wav(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_wav(tmp_path / "nope.wav")


class TestSynthDataset:
    def test_counts_and_composition(self):
        ds = synth_dataset(n_speakers=6, per=3, dims=(32, 32), seed=1)
        assert len(ds) == 6 * 4 * 3
        assert ds.features.shape == (72, 32, 32)
        for k in range(4):
            assert int(np.sum(ds.labels == k)) == 18
        for s in range(6):
            assert int(np.sum(ds.speakers == s)) == 12
        assert ds.speaker_ids == [f"spk{s:02d}" for s in range(6)]
        assert len(ds.class_names) == 4

    def test_deterministic_per_seed(self):
        a = synth_dataset(5, 2, dims=(16, 16), seed=9)
        b = synth_dataset(5, 2, dims=(16, 16), seed=9)
        c = synth_dataset(5, 2, dims=(16, 16), seed=10)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_classes_occupy_ordered_bands(self):
        # noiseless ridges: the row center of mass must rise with the label
        ds = synth_dataset(5, 4, dims=(64, 64), noise=0.0, seed=3)
        rows = np.arange(64)[:, None]
        centers = [
            float(np.mean((ds.features[ds.labels == k] * rows).sum(axis=1)
                          / ds.features[ds.labels == k].sum(axis=1)))
            for k in range(4)
        ]
        assert centers == sorted(centers)
        assert centers[-1] - centers[0] > 32.0

    def test_speaker_offset_shifts_band(self):
        ds = synth_dataset(5, 1, dims=(64, 64), noise=0.0, seed=3)
        rows = np.arange(64)[:, None]
        com = [
            float(np.mean((ds.features[(ds.labels == 0) & (ds.speakers == s)]
                           * rows).sum(axis=1)
                          / ds.features[(ds.labels == 0)
                                        & (ds.speakers == s)].sum(axis=1)))
            for s in range(5)
        ]
        assert max(com) - min(com) > 0.25   # offsets actually move the ridge

    def test_too_few_speakers_rejected(self):
        with pytest.raises(ContractViolation):
            synth_dataset(4, 2)

    @pytest.mark.parametrize("noise", [float("nan"), -1.0, float("inf")])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ContractViolation, match="noise"):
            synth_dataset(5, 1, dims=(8, 8), noise=noise)


class TestEdset:
    def _sample(self):
        return synth_dataset(5, 1, dims=(8, 8), seed=7)

    def test_round_trip(self, tmp_path):
        ds = self._sample()
        p = tmp_path / "d.edset"
        save_edset(ds, p)
        back = load_edset(p)
        assert np.array_equal(back.features,
                              ds.features.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.speakers, ds.speakers)
        assert back.class_names == ds.class_names
        assert back.speaker_ids == ds.speaker_ids
        assert back.seed == ds.seed
        assert back.generator == ds.generator

    def test_header_is_first_line_json(self, tmp_path):
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        header = json.loads(p.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == "edset"
        assert header["version"] == 1
        assert header["count"] == 20
        assert header["dims"] == [8, 8]

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.edset", tmp_path / "b.edset"
        save_edset(self._sample(), a)
        save_edset(self._sample(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_edset(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        doc = json.loads(head)
        doc["version"] = 99
        p.write_bytes(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n" + payload)
        with pytest.raises(DataError):
            load_edset(p)

    def test_label_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        doc = json.loads(head)
        doc["labels"][0] = 11
        p.write_bytes(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n" + payload)
        with pytest.raises(DataError):
            load_edset(p)

    @pytest.mark.parametrize("count", [20.0, True, -1, "20"])
    def test_non_integer_count_rejected(self, tmp_path, count):
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        doc = json.loads(head)
        doc["count"] = count
        p.write_bytes(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n" + payload)
        with pytest.raises(DataError):
            load_edset(p)

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("seed", 7.0), ("labels", "a"), ("labels", 1.7),
        ("labels", True), ("labels", 2 ** 70), ("speakers", "s0"),
        ("speakers", 0.5), ("class_names", "abcd"), ("speaker_ids", 5)])
    def test_mistyped_header_field_rejected(self, tmp_path, key, value):
        # `value` replaces the first labels/speakers entry, or the field
        p = tmp_path / "d.edset"
        save_edset(self._sample(), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        doc = json.loads(head)
        doc[key] = ([value] + doc[key][1:] if key in ("labels", "speakers")
                    else value)
        p.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(DataError):
            load_edset(p)

    def test_boolean_dims_rejected(self, tmp_path):
        # a 1-row corpus whose header spells its height as `true`: the
        # payload size still matches, so only the type check can catch it
        p = tmp_path / "d.edset"
        save_edset(Dataset(features=np.zeros((2, 1, 4)), labels=np.array([0, 1]),
                           speakers=np.array([0, 0]), speaker_ids=["s0"]), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        doc = json.loads(head)
        doc["dims"] = [True, 4]
        p.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(DataError):
            load_edset(p)

    def test_not_json_rejected(self, tmp_path):
        p = tmp_path / "junk.edset"
        p.write_bytes(b"\x00\x01binary\n\x02")
        with pytest.raises(DataError):
            load_edset(p)

    def test_split_view(self):
        ds = self._sample()
        x, y = ds.split([0, 3, 5])
        assert x.shape == (3, 8, 8)
        assert np.array_equal(y, ds.labels[[0, 3, 5]])
