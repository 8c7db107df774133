"""Cross-validated comparison across search scopes and baselines.

Every fold holds out a disjoint speaker group, searches (or trains a
fixed baseline), and reports unweighted accuracy on speakers the model
never saw. The scatter table is what goes into a params-vs-accuracy
plot.
"""

import os
import tempfile

import numpy as np

from emodarts.config import SearchConfig
from emodarts.features import synth_dataset
from emodarts.harness import (BASELINE_KINDS, STUDY_SCOPES, study,
                              write_results_csv, write_scatter_csv)


def main():
    ds = synth_dataset(n_speakers=6, per=4, dims=(16, 16), seed=33)
    cfg = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=2, channels=4, hidden=8,
                       epochs=4, batch_size=8, dropout=0.0, seed=33,
                       baseline_channels=4, baseline_dense=16,
                       baseline_lstm=8)

    # two searched scopes and one fixed net, two folds each
    results, scatter = study(ds, cfg, scopes=["RNN Only", "LSTM Only"],
                             n_folds=2, seed=33, search_epochs=4,
                             train_epochs=10)
    base_res, base_sc = study(ds, cfg, scopes=["cnn"],
                              n_folds=2, seed=33, train_epochs=10)
    results += base_res
    scatter += base_sc

    for r in results:
        ua = "NA" if r.ua is None else f"{r.ua:5.1f}"
        print(f"{r.scope:12s} fold {r.fold}  ua {ua}  params {r.params}")
    print()
    for s in scatter:
        print(f"{s['scope']:12s} mean ua {s['mean_ua']:5.1f} "
              f"+- {s['std_ua']:4.1f}  params {s['params']:.0f}")

    root = tempfile.mkdtemp(prefix="emodarts_demo_")
    write_results_csv(results, os.path.join(root, "results.csv"))
    write_scatter_csv(scatter, os.path.join(root, "scatter.csv"))
    print("\nwrote results.csv and scatter.csv under", root)
    print("available scopes:", STUDY_SCOPES)
    print("available baselines:", BASELINE_KINDS)


if __name__ == "__main__":
    main()
