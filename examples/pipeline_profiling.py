#!/usr/bin/env python3
"""Input-pipeline profiling: why the paper binarises offline.

Reproduces the Section III-B1 analysis with real file I/O: profiles the
per-epoch cost of re-transforming NIfTI volumes every epoch vs reading
pre-binarised TFRecord-style files, prints the stage table (the
TensorBoard-profiler-screenshot equivalent) and the amortisation point.

Run:  python examples/pipeline_profiling.py
"""

from repro.core import profile_online_vs_offline


def main() -> None:
    print("profiling online (transform every epoch) vs offline "
          "(binarise once) input pipelines...\n")
    report = profile_online_vs_offline(
        num_subjects=6,
        volume_shape=(64, 64, 32),
        epochs=3,
    )
    print(report.render())
    stage, seconds, elements = report.stages[0]
    print(
        f"\nbottleneck stage: {stage} "
        f"({1e3 * seconds / elements:.1f} ms/subject)"
    )
    print(
        "conclusion: the input data is identical every epoch, so the "
        "transform is hoisted out of the training loop -- the paper's "
        "offline TFRecord binarisation (Section III-B1)."
    )


if __name__ == "__main__":
    main()
