"""Audio features and datasets.

The front end is fixed: 16384 Hz mono audio, 8-second clips (tail padded
or truncated to 131072 samples), 1024-sample frames hopped by 256 under a
periodic Hann window, power spectrum, 128 area-normalized triangular mel
filters on the Slaney scale, natural log with a 1e-10 floor, and an
orthonormal DCT-II across the mel axis keeping all 128 coefficients. An
8-second clip therefore becomes a (128, 512) matrix, and non-overlapping
1x4 max pooling along time squares it to (128, 128).

The synthetic corpus draws feature-space images directly: each class is a
sinusoidally modulated Gaussian ridge (own base row and modulation rate),
each speaker shifts and rescales the ridge, and white noise is added on
top. Datasets travel in the EDSET container of `artifacts`: one JSON
header line, then the little-endian float32 feature payload in sample
order.
"""

from __future__ import annotations

import wave as wave_mod
from dataclasses import dataclass, field

import numpy as np

from .artifacts import is_int, read_container, write_container
from .errors import ContractViolation, DataError

__all__ = [
    "SAMPLE_RATE", "CLIP_SECONDS", "CLIP_SAMPLES", "FRAME_SIZE", "HOP_SIZE",
    "N_FRAMES", "N_MELS", "LOG_FLOOR", "CLASS_NAMES", "Dataset",
    "pad_or_truncate", "hz_to_mel", "mel_to_hz", "mel_filterbank", "mfcc",
    "pool_downsample", "load_wav", "synth_dataset", "save_edset",
    "load_edset",
]

SAMPLE_RATE = 16384
CLIP_SECONDS = 8
CLIP_SAMPLES = SAMPLE_RATE * CLIP_SECONDS      # 131072
FRAME_SIZE = 1024
HOP_SIZE = 256
N_FRAMES = 512
N_MELS = 128
LOG_FLOOR = 1e-10

CLASS_NAMES = ["anger", "happiness", "neutral", "sadness"]


def pad_or_truncate(wave: np.ndarray, n: int = CLIP_SAMPLES) -> np.ndarray:
    """Fix clip length by zero-padding or cutting at the tail."""
    wave = np.asarray(wave, dtype=np.float64).ravel()
    if wave.size >= n:
        return wave[:n].copy()
    return np.concatenate([wave, np.zeros(n - wave.size)])


def hz_to_mel(f):
    """Slaney scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    lin = f / (200.0 / 3.0)
    log = 15.0 + 27.0 * np.log(np.maximum(f, 1e-12) / 1000.0) / np.log(6.4)
    return np.where(f < 1000.0, lin, log)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    lin = m * (200.0 / 3.0)
    log = 1000.0 * np.exp(np.log(6.4) * (m - 15.0) / 27.0)
    return np.where(m < 15.0, lin, log)


def mel_filterbank(n_mels: int = N_MELS, n_fft: int = FRAME_SIZE,
                   sr: int = SAMPLE_RATE) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular filters, each normalized to unit
    area (weight 2 / bandwidth), evaluated at the FFT bin frequencies."""
    n_bins = n_fft // 2 + 1
    freqs = np.arange(n_bins) * (sr / n_fft)
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def mfcc(wave: np.ndarray) -> np.ndarray:
    """(128, 512) cepstral matrix from one clip (mel rows, time columns)."""
    # imported here, not with the module: it would dominate `import emodarts`
    import scipy.fft
    x = pad_or_truncate(wave)
    # pad so exactly N_FRAMES frames fit: (N_FRAMES-1)*hop + frame samples
    total = (N_FRAMES - 1) * HOP_SIZE + FRAME_SIZE
    x = np.concatenate([x, np.zeros(total - x.size)])
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_SIZE)[::HOP_SIZE]
    n = np.arange(FRAME_SIZE)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / FRAME_SIZE)   # periodic Hann
    spectrum = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    mel = spectrum @ mel_filterbank().T                          # (T, n_mels)
    logmel = np.log(np.maximum(mel, LOG_FLOOR)).T                # (n_mels, T)
    return scipy.fft.dct(logmel, type=2, norm="ortho", axis=0)


def pool_downsample(feat: np.ndarray, factor: int = 4) -> np.ndarray:
    """Non-overlapping 1 x factor max pooling along time."""
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[1] % factor:
        raise ContractViolation(
            f"pool_downsample wants (F, T) with T divisible by {factor}, "
            f"got {feat.shape}")
    h, t = feat.shape
    return feat.reshape(h, t // factor, factor).max(axis=2)


def load_wav(path) -> np.ndarray:
    """Mono 16-bit PCM loader built on the stdlib wave module. Samples are
    scaled by 1/32768; other rates are linearly resampled to 16384 Hz."""
    try:
        with wave_mod.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (OSError, EOFError, wave_mod.Error) as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise DataError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate <= 0:
        raise DataError(f"{path}: frame rate {rate} is not positive")
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if rate != SAMPLE_RATE and x.size:
        duration = x.size / rate
        n_out = max(int(round(duration * SAMPLE_RATE)), 1)
        t_out = np.arange(n_out) / SAMPLE_RATE
        t_in = np.arange(x.size) / rate
        x = np.interp(t_out, t_in, x)
    return x


@dataclass
class Dataset:
    features: np.ndarray          # (n, H, W)
    labels: np.ndarray            # (n,) class indices
    speakers: np.ndarray          # (n,) indices into speaker_ids
    class_names: list = field(default_factory=lambda: list(CLASS_NAMES))
    speaker_ids: list = field(default_factory=list)
    seed: int = 0
    generator: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.features)

    def split(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) view for model training APIs."""
        idx = np.asarray(idx)
        return self.features[idx], self.labels[idx]


def synth_dataset(n_speakers: int, per: int, dims=(128, 128),
                  noise: float = 0.1, seed: int = 0,
                  n_classes: int = 4) -> Dataset:
    """Deterministic ridge corpus: `per` clips per class per speaker.

    Class k centers its ridge at row (k + 0.5) * H / n_classes and wobbles
    it with k+1 sine cycles across the width (amplitude H/16); speakers
    add a fixed row offset (within +-H/32) and gain; every sample gets its
    own phase and additive noise.
    """
    if n_speakers < 5:
        raise ContractViolation(
            f"need at least 5 speakers for meaningful folds, got {n_speakers}")
    if per < 1 or n_classes < 2:
        raise ContractViolation("need per >= 1 and n_classes >= 2")
    if not 0.0 <= noise < np.inf:
        raise ContractViolation(f"noise must be finite and >= 0, got {noise}")
    h, w = dims
    rng = np.random.default_rng([int(seed), 0xDA7A])
    offsets = rng.uniform(-h / 32.0, h / 32.0, size=n_speakers)
    gains = rng.uniform(0.9, 1.1, size=n_speakers)
    sigma = h / 20.0
    amp = h / 16.0
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    feats, labels, speakers = [], [], []
    for s in range(n_speakers):
        for k in range(n_classes):
            base = (k + 0.5) * h / n_classes + offsets[s]
            omega = 2.0 * np.pi * (k + 1) / w
            for _ in range(per):
                phase = rng.uniform(0.0, 2.0 * np.pi)
                center = base + amp * np.sin(omega * cols + phase)
                img = gains[s] * np.exp(-((rows - center) ** 2)
                                        / (2.0 * sigma ** 2))
                img = img + noise * rng.normal(size=(h, w))
                feats.append(img)
                labels.append(k)
                speakers.append(s)
    names = (list(CLASS_NAMES) if n_classes == len(CLASS_NAMES)
             else [f"class{k}" for k in range(n_classes)])
    return Dataset(
        features=np.stack(feats),
        labels=np.asarray(labels, dtype=np.int64),
        speakers=np.asarray(speakers, dtype=np.int64),
        class_names=names,
        speaker_ids=[f"spk{s:02d}" for s in range(n_speakers)],
        seed=int(seed),
        generator={"kind": "ridge", "noise": float(noise),
                   "dims": [int(h), int(w)], "per": int(per),
                   "n_speakers": int(n_speakers), "n_classes": int(n_classes)})


EDSET_FORMAT = "edset"
EDSET_VERSION = 1


def save_edset(dataset: Dataset, path) -> None:
    n, h, w = dataset.features.shape
    header = {
        "format": EDSET_FORMAT,
        "version": EDSET_VERSION,
        "count": int(n),
        "dims": [int(h), int(w)],
        "class_names": list(dataset.class_names),
        "speaker_ids": list(dataset.speaker_ids),
        "labels": [int(v) for v in dataset.labels],
        "speakers": [int(v) for v in dataset.speakers],
        "seed": int(dataset.seed),
        "generator": dataset.generator,
    }
    write_container(path, header, np.ascontiguousarray(
        dataset.features, dtype="<f4").tobytes())


def load_edset(path) -> Dataset:
    header, payload = read_container(path, EDSET_FORMAT, EDSET_VERSION, (
        "count", "dims", "class_names", "speaker_ids", "labels", "speakers",
        "seed", "generator"))
    n = header["count"]
    if not is_int(n) or n < 0:
        raise DataError(f"bad count {n!r}")
    dims = header["dims"]
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(is_int(d) and d > 0 for d in dims)):
        raise DataError(f"bad dims {dims!r}")
    h, w = dims
    flat = np.frombuffer(payload, dtype="<f4")
    if flat.size != n * h * w:
        raise DataError(
            f"payload holds {flat.size} values, header promises {n * h * w}")
    for key, names in (("labels", "class_names"), ("speakers", "speaker_ids")):
        if not (isinstance(header[names], list)
                and all(isinstance(v, str) for v in header[names])):
            raise DataError(f"{names} is not a list of strings")
        vals, bound = header[key], len(header[names])
        if not (isinstance(vals, list) and len(vals) == n
                and all(is_int(v) and 0 <= v < bound for v in vals)):
            raise DataError(f"{key} is not a list of {n} indices into {names}")
    if not is_int(header["seed"]):
        raise DataError(f"bad seed {header['seed']!r}")
    labels = np.asarray(header["labels"], dtype=np.int64)
    speakers = np.asarray(header["speakers"], dtype=np.int64)
    return Dataset(
        features=flat.reshape(n, h, w).astype(np.float64),
        labels=labels, speakers=speakers,
        class_names=list(header["class_names"]),
        speaker_ids=list(header["speaker_ids"]),
        seed=header["seed"], generator=header["generator"])
