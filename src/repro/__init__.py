"""DistMIS reproduction.

Reproduction of Berral et al., *Distributing Deep Learning
Hyperparameter Tuning for 3D Medical Image Segmentation* (IPDPS
Workshops 2022): data-parallel vs experiment-parallel distribution of a
3D U-Net hyper-parameter search, rebuilt from scratch in NumPy with a
calibrated cluster simulator standing in for the BSC MareNostrum-CTE
GPU cluster.

Subpackages
-----------
``repro.nn``
    NumPy deep-learning engine (TensorFlow substitute): 3D conv layers,
    the Fig 2 U-Net, Dice losses, Adam, cyclic LR.
``repro.data``
    Dataset substrate: synthetic BraTS cohort, NIfTI-1 codec,
    TFRecord-style files, tf.data-style pipeline.
``repro.cluster``
    Cluster hardware model (simulator): V100 nodes, NVLink /
    InfiniBand links, collective cost models, GPU-failure pricing.
``repro.raysim``
    Ray-like runtime: data-parallel SGD over an exact ring all-reduce,
    Tune-like trial runner with grid/random/ASHA search.
``repro.perf``
    Calibrated performance model (simulator) behind the Table I
    reproduction, including Ray Tune's greedy trial placement.
``repro.telemetry``
    Unified observability: metrics registry, span tracer, run
    manifests, and the process-wide hub with its zero-overhead null
    twin.
``repro.core``
    The paper's pipeline: configuration spaces, data-parallel and
    experiment-parallel drivers, inference, profiling; its simulator
    modules (``simulated``, ``results``, ``report``, ``runner``) are
    imported by name.

Importing, training or serving loads no simulator module (``cluster``,
``perf``, ``core``'s simulator modules); the simulator imports the rest.
"""

__version__ = "1.0.0"

__all__ = ["nn", "data", "cluster", "raysim", "perf", "telemetry", "core",
           "__version__"]
