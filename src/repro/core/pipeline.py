"""The end-to-end training pipeline of Fig 1 (in-process backend).

Stages, exactly as the paper lays them out:

1. **Offline binarisation** (Section III-B1): subjects are pre-processed
   once (crop -> standardise -> binary labels) and written to
   TFRecord-style files, so no epoch ever repeats the transform;
2. **Input pipeline**: each split is read from its records once into
   stacked arrays; an epoch is a seeded shuffle order (tf.data's
   reservoir shuffle, replayed as indices) and a per-batch gather;
3. **Training**: the 3D U-Net under soft Dice, Adam at the scaled
   learning rate, for a fixed epoch budget;
4. **Validation**: per-epoch Dice on the held-out split; final Dice on
   the test split.

``MISPipeline`` owns stages 1-2 and exposes epoch iterators;
``train_trial`` drives stages 3-4 for one hyper-parameter configuration
on ``num_replicas`` virtual GPUs via the Ray-SGD-analogue trainer.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.dataset import Dataset, shuffle_order
from ..data.nifti import read_nifti, write_nifti
from ..data.preprocess import preprocess_subject
from ..data.records import (
    IndexedRecordReader,
    RecordIndexError,
    read_example_file,
    write_example_file,
)
from ..data.splits import DatasetSplit, split_indices
from ..data.synthetic_brats import Subject, SyntheticBraTS
from ..nn.metrics import batch_dice
from ..raysim.sgd import DataParallelTrainer
from .checkpoint import CheckpointManager
from .config import ExperimentSettings, build_loss, build_model, build_optimizer

__all__ = ["MISPipeline", "EpochRecord", "TrialOutcome", "train_trial"]

_SPLITS = ("train", "val", "test")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_dice: float
    lr: float
    seconds: float


@dataclass
class TrialOutcome:
    """Everything a finished trial reports back (the Ray callback data)."""

    config: dict
    history: list[EpochRecord] = field(default_factory=list)
    val_dice: float = 0.0
    test_dice: float = 0.0
    num_replicas: int = 1
    wall_seconds: float = 0.0
    converged_epoch: int | None = None

    def best_val_dice(self) -> float:
        return max((r.val_dice for r in self.history), default=0.0)


class MISPipeline:
    """Dataset preparation + input pipeline for the in-process backend.

    ``input_mode`` selects between the paper's two ingestion paths
    (Section III-B1): ``"records"`` (the default) binarises offline once,
    loads each split once into stacked arrays and serves every epoch
    from them, while ``"nifti"`` mimics the naive baseline -- the cohort
    stays as raw NIfTI files and every epoch re-decodes and
    re-preprocesses each subject online.  Both paths yield bit-identical
    tensors; only where the time goes differs, which is exactly what the
    profiler's input-bound % verdict measures (claim C3).

    Without a ``record_dir`` the files go to a temporary directory that
    is removed when the pipeline is garbage-collected.
    """

    def __init__(self, settings: ExperimentSettings,
                 record_dir: str | Path | None = None,
                 telemetry=None,
                 input_mode: str = "records"):
        if input_mode not in ("records", "nifti"):
            raise ValueError(
                f"input_mode must be 'records' or 'nifti', got {input_mode!r}"
            )
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self.telemetry = telemetry
        self.settings = settings
        self.input_mode = input_mode
        self.generator = SyntheticBraTS(
            num_subjects=settings.num_subjects,
            volume_shape=settings.volume_shape,
            seed=settings.data_seed,
        )
        self.split: DatasetSplit = split_indices(settings.num_subjects,
                                                 seed=settings.data_seed)
        self._record_dir = Path(record_dir) if record_dir is not None else None
        self._record_files: dict[str, Path] = {}
        self._nifti_files: dict[str, list[tuple[Path, Path]]] = {}
        self._arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._owner = None
        self._divisor = 2 ** (settings.depth - 1)

    @classmethod
    def from_arrays(cls, settings: ExperimentSettings, arrays,
                    telemetry=None) -> "MISPipeline":
        """A pipeline over already-stacked splits, keyed
        ``{split}_images`` / ``{split}_masks`` (see :meth:`split_arrays`).

        A pool worker builds it from the parent's shared-memory views
        (:meth:`repro.execpool.SharedArrayHandle.attach`), so it trains
        on the parent's binarised splits without re-generating,
        re-decoding or copying them.
        """
        pipeline = cls(settings, telemetry=telemetry)
        # Keep an AttachedArrays referenced: if it is collected,
        # SharedMemory.__del__ unmaps the segment under the views.
        pipeline._owner = arrays
        views = getattr(arrays, "arrays", arrays)
        for split in _SPLITS:
            try:
                pipeline._arrays[split] = (views[f"{split}_images"],
                                           views[f"{split}_masks"])
            except KeyError as exc:
                raise ValueError(
                    f"array bundle is missing {exc.args[0]!r}"
                ) from None
        return pipeline

    def _directory(self) -> Path:
        if self._record_dir is None:
            self._record_dir = Path(tempfile.mkdtemp(prefix="distmis_records_"))
            weakref.finalize(self, shutil.rmtree, self._record_dir, True)
        self._record_dir.mkdir(parents=True, exist_ok=True)
        return self._record_dir

    def _indices(self, split: str) -> tuple[int, ...]:
        if split not in _SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return getattr(self.split, split)

    def _timed(self, stage: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.telemetry.on_stage(stage, time.perf_counter() - t0)
        return out

    # -- stage 1: offline binarisation --------------------------------------
    def binarize(self) -> dict[str, Path]:
        """Pre-process every subject once and write one record file per
        split.  Idempotent; returns the file map."""
        if self._record_files:
            return self._record_files
        directory = self._directory()
        for name in _SPLITS:
            indices = self._indices(name)
            path = directory / f"{name}.rec"
            t0 = time.perf_counter()

            def examples():
                for i in indices:
                    ex = preprocess_subject(
                        self.generator[i], divisor=self._divisor
                    )
                    yield {"image": ex.image, "mask": ex.mask}

            write_example_file(path, examples())
            self.telemetry.on_stage("binarize." + name,
                                    time.perf_counter() - t0, len(indices))
            self._record_files[name] = path
        return self._record_files

    # -- stage 1': the raw-NIfTI baseline ------------------------------------
    def materialize_nifti(self) -> dict[str, list[tuple[Path, Path]]]:
        """Write every subject as raw NIfTI (image + label volume), the
        on-disk format the naive online pipeline ingests.  Idempotent;
        returns ``{split: [(image_path, label_path), ...]}``."""
        if self._nifti_files:
            return self._nifti_files
        directory = self._directory()
        for name in _SPLITS:
            indices = self._indices(name)
            t0 = time.perf_counter()
            pairs: list[tuple[Path, Path]] = []
            for i in indices:
                subject = self.generator[i]
                img = directory / f"{subject.subject_id}_img.nii"
                lbl = directory / f"{subject.subject_id}_lbl.nii"
                write_nifti(img, subject.image,
                            description=subject.subject_id)
                write_nifti(lbl, subject.label)
                pairs.append((img, lbl))
            self.telemetry.on_stage("nifti_write." + name,
                                    time.perf_counter() - t0, len(indices))
            self._nifti_files[name] = pairs
        return self._nifti_files

    def _decode_nifti(self, pair: tuple[Path, Path]):
        """The online baseline's per-element work: decode both volumes,
        then run the full preprocess transform -- what offline
        binarisation does exactly once."""
        img, lbl = self._timed("nifti_decode",
                               lambda: (read_nifti(pair[0]), read_nifti(pair[1])))
        subject = Subject(subject_id=img.description, image=img.data,
                          label=lbl.data)
        return self._timed("transform", lambda: preprocess_subject(
            subject, divisor=self._divisor).as_tuple())

    # -- stage 2: input pipeline ---------------------------------------------
    def dataset(self, split: str, batch_size: int,
                shuffle_seed: int | None = None, augmenter=None) -> Dataset:
        """Re-iterable epoch of ``(image_batch, mask_batch)`` tuples.

        An epoch is an index order -- :func:`shuffle_order` with a
        ``max(2, 4 * batch_size)`` reservoir when ``shuffle_seed`` is
        given, the split order otherwise -- and, per batch, a gather of
        those rows from the split's stacked arrays (``"nifti"`` mode
        decodes and pre-processes each element instead).

        ``augmenter`` (a :class:`repro.data.augment.Augmenter`) is the
        online complement of offline binarisation, applied per element
        before batching.  Its RNG advances across iterations, so
        successive epochs see *different* augmentations while a re-run
        of the whole trial (fresh augmenter, same seed) replays exactly.
        """
        self._indices(split)
        if self.input_mode == "nifti":
            pairs = self.materialize_nifti()[split]
            n = len(pairs)

            def element(i):
                return self._decode_nifti(pairs[i])
        else:
            images, masks = self.load_split_arrays(split)
            n = images.shape[0]

            def element(i):
                return images[i], masks[i]
        order = (np.arange(n) if shuffle_seed is None
                 else shuffle_order(n, max(2, batch_size * 4), shuffle_seed))

        def epoch():
            for start in range(0, n, batch_size):
                rows = [element(i) for i in order[start:start + batch_size]]
                if augmenter is not None:
                    rows = [self._timed("augment", augmenter, *row)
                            for row in rows]
                yield (np.stack([image for image, _ in rows]),
                       np.stack([mask for _, mask in rows]))

        return Dataset.from_generator(epoch)

    def load_split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """Whole split as two stacked arrays, loaded once and cached.

        Reads through the index sidecar when present: the per-record
        decode is a zero-copy view over the file mapping and the only
        copy is the final stack.  Falls back to the sequential verifying
        scan when the sidecar is missing or bad.
        """
        self._indices(split)
        if split not in self._arrays:
            if self.input_mode == "nifti":
                rows = [self._decode_nifti(pair)
                        for pair in self.materialize_nifti()[split]]
            else:
                path = self.binarize()[split]
                try:
                    examples = list(IndexedRecordReader(path))
                except RecordIndexError:
                    examples = list(read_example_file(path))
                rows = [(ex["image"], ex["mask"]) for ex in examples]
            arrays = (np.stack([image for image, _ in rows]),
                      np.stack([mask for _, mask in rows]))
            for a in arrays:  # shared by every caller and every epoch
                a.flags.writeable = False
            self._arrays[split] = arrays
        return self._arrays[split]

    def split_arrays(self) -> dict[str, np.ndarray]:
        """Every split stacked, keyed ``{split}_images`` /
        ``{split}_masks`` -- the bundle a
        :class:`repro.execpool.SharedArrayStore` publishes to workers."""
        out: dict[str, np.ndarray] = {}
        for split in _SPLITS:
            images, masks = self.load_split_arrays(split)
            out[f"{split}_images"] = images
            out[f"{split}_masks"] = masks
        return out

    def steps_per_epoch(self, batch_size: int) -> int:
        return math.ceil(len(self.split.train) / batch_size)


def train_trial(
    config: dict,
    settings: ExperimentSettings,
    pipeline: MISPipeline,
    num_replicas: int = 1,
    reporter=None,
    convergence_patience: int | None = None,
    convergence_tol: float = 5e-3,
    checkpoint_manager: CheckpointManager | None = None,
    telemetry=None,
) -> TrialOutcome:
    """Train one hyper-parameter configuration end to end.

    ``num_replicas`` > 1 trains data-parallel on virtual GPUs with the
    exact sharded-gradient semantics; the global batch is
    ``batch_per_replica x num_replicas`` with the learning rate scaled
    accordingly, the paper's Section IV-B recipe.  ``reporter`` is the
    Ray-Tune-style per-epoch callback; returning False stops the trial
    (ASHA).  ``convergence_patience`` implements the paper's observation
    that training stabilises long before the epoch budget (E7): the
    epoch after which the best validation Dice stopped improving by
    ``convergence_tol`` for that many epochs is recorded (training still
    runs the full budget, as the paper's did).  ``telemetry`` (default:
    the pipeline's hub) receives per-epoch spans and metrics on top of
    the trainer's per-step stream.

    Fault tolerance: with a ``checkpoint_manager`` every epoch is
    checkpointed (model + optimizer + running best Dice) and the path is
    published through the reporter (``checkpoint=...``); if the reporter
    carries a ``resume_from`` handle (a crashed attempt being retried
    under ``RetryPolicy(resume="checkpoint")``), the checkpoint is
    restored into every replica and training continues at the next
    epoch.  Shuffling is re-seeded per epoch, so a resumed run is
    bit-identical to an uninterrupted one -- except under
    ``settings.augment``, whose augmenter RNG advances across epochs.
    """
    t_start = time.perf_counter()
    if telemetry is None:
        telemetry = getattr(pipeline, "telemetry", None)
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
    global_batch = settings.batch_per_replica * num_replicas
    steps = pipeline.steps_per_epoch(global_batch)

    trainer = DataParallelTrainer(
        model_factory=lambda: build_model(config, settings),
        loss=build_loss(config),
        optimizer_factory=lambda m: build_optimizer(
            config, settings, m, num_replicas=num_replicas,
            steps_per_epoch=steps,
        ),
        num_replicas=num_replicas,
        sync_batchnorm=settings.sync_batchnorm,
        telemetry=telemetry,
    )
    m_epoch_seconds = telemetry.metrics.histogram(
        "train_epoch_seconds", "wall-clock per training epoch")
    m_val_dice = telemetry.metrics.gauge(
        "val_dice", "validation Dice after the last epoch")
    augmenter = None
    if settings.augment:
        from ..data.augment import Augmenter, random_flip, random_gaussian_noise

        augmenter = Augmenter(
            [random_flip(p=0.5), random_gaussian_noise(0.02)],
            seed=settings.seed * 31 + 5,
        )
    val_x, val_y = pipeline.load_split_arrays("val")

    outcome = TrialOutcome(config=dict(config), num_replicas=num_replicas)
    best = -1.0
    stale = 0
    start_epoch = 0
    restored_best = 0.0
    resume = getattr(reporter, "resume_from", None)
    if checkpoint_manager is not None and resume is not None and resume.path:
        meta = trainer.load_checkpoint(resume.path)
        start_epoch = int(meta.get("epoch", resume.epoch)) + 1
        restored_best = float(meta.get("best_val_dice",
                                       meta.get("val_dice", 0.0)))
        telemetry.metrics.counter(
            "trial_restores_total",
            "trainings resumed from a checkpoint").inc()
    ckpt_best = restored_best
    try:
        for epoch in range(start_epoch, settings.epochs):
            t0 = time.perf_counter()
            losses = []
            lr = 0.0
            with telemetry.tracer.span("epoch", category="train",
                                       epoch=epoch):
                ds = pipeline.dataset(
                    "train", global_batch,
                    shuffle_seed=settings.seed * 10_007 + epoch,
                    augmenter=augmenter,
                )
                # Manual iteration so the blocking time on the input
                # pipeline lands in the "data_wait" step bucket.
                it = iter(ds)
                while True:
                    t_wait = time.perf_counter()
                    batch = next(it, None)
                    telemetry.on_step_bucket(
                        "data_wait", time.perf_counter() - t_wait)
                    if batch is None:
                        break
                    x, y = batch
                    if x.shape[0] < num_replicas:
                        continue  # drop a remainder smaller than the replica set
                    out = trainer.train_step(x, y)
                    losses.append(out["loss"])
                    lr = out["lr"]

                with telemetry.tracer.span("validation", category="eval",
                                           epoch=epoch):
                    pred = trainer.model.predict(val_x)
                    val_dice = float(batch_dice(pred, val_y).mean())
            m_epoch_seconds.observe(time.perf_counter() - t0)
            m_val_dice.set(val_dice)
            rec = EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(losses)) if losses else float("nan"),
                val_dice=val_dice,
                lr=lr,
                seconds=time.perf_counter() - t0,
            )
            outcome.history.append(rec)

            if convergence_patience is not None and outcome.converged_epoch is None:
                if val_dice > best + convergence_tol:
                    best = val_dice
                    stale = 0
                else:
                    stale += 1
                    if stale >= convergence_patience:
                        outcome.converged_epoch = epoch - stale + 1

            ckpt_extra = {}
            if checkpoint_manager is not None:
                ckpt_best = max(ckpt_best, val_dice)
                t_ck = time.perf_counter()
                path = checkpoint_manager.save(
                    trainer.model, trainer.optimizer, epoch=epoch,
                    val_dice=val_dice, best_val_dice=ckpt_best,
                )
                telemetry.on_step_bucket(
                    "checkpoint", time.perf_counter() - t_ck)
                ckpt_extra["checkpoint"] = str(path)

            if reporter is not None:
                if not reporter(epoch=epoch, train_loss=rec.train_loss,
                                val_dice=val_dice, lr=lr, **ckpt_extra):
                    break

        outcome.val_dice = max(outcome.best_val_dice(), restored_best)
        test_x, test_y = pipeline.load_split_arrays("test")
        with telemetry.tracer.span("test_eval", category="eval"):
            pred = trainer.model.predict(test_x)
            outcome.test_dice = float(batch_dice(pred, test_y).mean())
    finally:
        trainer.shutdown()
    outcome.wall_seconds = time.perf_counter() - t_start
    return outcome
