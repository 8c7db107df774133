"""From a waveform to the (128, 128) input the networks consume."""

import os
import tempfile

import numpy as np

from emodarts.features import (CLIP_SAMPLES, SAMPLE_RATE, mfcc,
                               pad_or_truncate, pool_downsample,
                               synth_dataset, save_edset, load_edset)


def main():
    # a fake utterance: two tones plus noise, 8 seconds at 16384 Hz
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    rng = np.random.default_rng(1)
    wav = (0.4 * np.sin(2 * np.pi * 220 * t)
           + 0.2 * np.sin(2 * np.pi * 880 * t)
           + 0.02 * rng.normal(size=CLIP_SAMPLES))

    feat = mfcc(wav)
    print("cepstral map:", feat.shape)          # (128, 512)
    pooled = pool_downsample(feat)
    print("after 1x4 time pooling:", pooled.shape)  # (128, 128)

    # shorter clips are zero-padded to the full 8 s before framing
    short = mfcc(pad_or_truncate(wav[: SAMPLE_RATE]))
    print("1 s clip gives the same grid:", short.shape)

    # the synthetic corpus generator bakes speaker and class structure
    # into the same (128, 128) layout, no audio involved
    ds = synth_dataset(n_speakers=6, per=4, seed=3)
    print("synthetic corpus:", ds.features.shape, "classes:", ds.class_names)

    # storage quantizes features to float32, labels survive exactly
    path = os.path.join(tempfile.mkdtemp(prefix="emodarts_demo_"),
                        "corpus.edset")
    save_edset(ds, path)
    back = load_edset(path)
    print("edset round trip ok:",
          np.allclose(ds.features, back.features, atol=1e-6)
          and np.array_equal(ds.labels, back.labels))


if __name__ == "__main__":
    main()
