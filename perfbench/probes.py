"""Per-layer probes: the layers' public functions timed directly.

Each probe runs at the workload's own shapes, dtype and default kernel
backend and reports the median of ``REPEATS`` calls after one warm
call.  They run only in a traced run, after the timed passes, and feed
the ``per_layer`` metrics that the passes themselves cannot see.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from . import spec
from .workloads import (EpochReporter, ServeInputs, first_config,
                        intervals_ms, settings_for)

now = time.monotonic
REPEATS = 5


def median_ms(fn, warm: int = 1) -> float:
    for _ in range(warm):
        fn()
    samples = []
    for _ in range(REPEATS):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return median(samples) * 1e3


def cli_import_ms(workload: str, src: Path) -> float:
    """Fresh interpreter: the CLI plus what the workload's command
    imports before it does anything (the harness's own import already
    warmed the page cache, so there is no extra warm call)."""
    modules = "repro.cli, repro.core, repro.nn"
    if spec.WORKLOADS[workload]["kind"] == spec.SERVE:
        modules += ", repro.serve"
    env = dict(os.environ, PYTHONPATH=str(src))
    return median_ms(
        lambda: subprocess.run([sys.executable, "-c", f"import {modules}"],
                               env=env, check=True),
        warm=0)


def _noop_trainable(config, reporter):
    return None


def pool_probes() -> dict:
    """A bare two-worker pool: start, no-op round trips, shutdown."""
    from repro.execpool import ProcessPoolTrialExecutor

    def round_trip(pool, task_id: str) -> float:
        t0 = now()
        pool.submit(task_id, {})
        while True:
            msg = pool.next_message(timeout=30.0)
            if msg[0] == "done" and msg[1] == task_id:
                return now() - t0

    t0 = now()
    pool = ProcessPoolTrialExecutor(_noop_trainable, max_workers=2)
    try:
        round_trip(pool, "first")
        start_s = now() - t0
        trips = [round_trip(pool, f"trip{i}") for i in range(4 * REPEATS)]
    finally:
        t0 = now()
        pool.shutdown()
        shutdown_s = now() - t0
    return {"execpool.pool_start_ms": start_s * 1e3,
            "execpool.roundtrip_ms": median(trips) * 1e3,
            "execpool.shutdown_ms": shutdown_s * 1e3}


# == training workloads =====================================================
def training_probes(workload: str, seed: int, run_dir: Path) -> dict:
    from repro.nn import use_compute_dtype

    with use_compute_dtype(spec.WORKLOADS[workload]["dtype"]):
        out = _training_probes(workload, seed, run_dir)
    if workload == "search_pool":
        out.update(pool_probes())
    return out


def _training_probes(workload: str, seed: int, run_dir: Path) -> dict:
    from repro.cluster.collectives import ring_allreduce
    from repro.core import (CheckpointManager, MISPipeline, build_loss,
                            build_model, build_optimizer, load_checkpoint)
    from repro.data import IndexedRecordReader, decode_example
    from repro.nn import batch_dice, workspace, workspace_bytes
    from repro.nn.kernels import consume_kernel_seconds
    from repro.raysim.sgd import DataParallelTrainer

    w = spec.WORKLOADS[workload]
    replicas = w["replicas"]
    settings = settings_for(workload, seed, epochs=2)
    config = first_config(workload)
    per_replica = settings.batch_per_replica
    out: dict[str, float] = {}

    # -- data ---------------------------------------------------------------
    samples = []
    for i in range(REPEATS + 1):   # the first one is the warm call
        records = run_dir / f"binarize{i}"
        records.mkdir(parents=True)
        pipeline = MISPipeline(settings, record_dir=records)
        t0 = now()
        pipeline.binarize()
        samples.append(now() - t0)
        if i < REPEATS:
            shutil.rmtree(records)
    out["data.binarize_ms_per_subject"] = (
        median(samples[1:]) * 1e3 / settings.num_subjects)
    out["data.split_load_ms"] = median_ms(pipeline.split_arrays)
    global_batch = per_replica * replicas

    def read_epoch():
        for _ in pipeline.dataset("train", global_batch, shuffle_seed=7):
            pass

    out["data.epoch_read_ms"] = median_ms(read_epoch)
    reader = IndexedRecordReader(pipeline.binarize()["train"])
    payloads = [bytes(reader.payload(i)) for i in range(len(reader))]
    out["data.decode_us_per_example"] = median_ms(
        lambda: [decode_example(p) for p in payloads]) * 1e3 / len(payloads)

    # -- nn -----------------------------------------------------------------
    steps = pipeline.steps_per_epoch(global_batch)

    def fresh():
        model = build_model(config, settings)
        return model, build_optimizer(config, settings, model,
                                      num_replicas=replicas,
                                      steps_per_epoch=steps)

    out["nn.model_build_ms"] = median_ms(lambda: build_model(config,
                                                             settings))
    loss = build_loss(config)
    x, y = next(iter(pipeline.dataset("train", per_replica, shuffle_seed=7)))
    val_x, val_y = pipeline.load_split_arrays("val")

    def step(model, optimizer) -> tuple[float, float, float, float]:
        t0 = now()
        model.zero_grad()
        pred = model(x)
        t1 = now()
        _, dpred = loss.forward(pred, y)
        t2 = now()
        model.backward(dpred)
        t3 = now()
        optimizer.step()
        return t1 - t0, t2 - t1, t3 - t2, now() - t3

    workspace().clear()         # cold: no scratch buffer survives
    model, optimizer = fresh()
    out["nn.first_step_ms"] = sum(step(model, optimizer)) * 1e3
    consume_kernel_seconds()
    parts = [step(model, optimizer) for _ in range(REPEATS)]
    ledger = sum(consume_kernel_seconds().values())
    for i, name in enumerate(("forward", "loss", "backward", "opt_step")):
        out[f"nn.{name}_ms"] = median([p[i] for p in parts]) * 1e3
    out["nn.conv_share"] = ledger / sum(p[0] + p[2] for p in parts)
    out["nn.predict_ms"] = median_ms(lambda: model.predict(val_x))
    out["core.val_eval_ms"] = median_ms(
        lambda: float(batch_dice(model.predict(val_x), val_y).mean()))
    out["nn.workspace_mb"] = workspace_bytes() / 2 ** 20

    # -- core: checkpoints (only train_dp2 saves them) ----------------------
    if workload == "train_dp2":
        manager = CheckpointManager(run_dir / "probe_checkpoints")
        epoch = iter(range(10 ** 6))
        out["core.checkpoint_save_ms"] = median_ms(
            lambda: manager.save(model, optimizer, epoch=next(epoch),
                                 val_dice=0.5, best_val_dice=0.5))
        out["core.checkpoint_load_ms"] = median_ms(
            lambda: load_checkpoint(manager.latest_path(), model, optimizer))

    # -- cluster / raysim ---------------------------------------------------
    grads = [model.get_flat_grads() for _ in range(replicas)]
    out["cluster.allreduce_ms"] = median_ms(lambda: ring_allreduce(grads))

    def dp_step_ms(n: int) -> float:
        trainer = DataParallelTrainer(
            model_factory=lambda: build_model(config, settings), loss=loss,
            optimizer_factory=lambda m: build_optimizer(
                config, settings, m, num_replicas=n, steps_per_epoch=steps),
            num_replicas=n)
        try:
            xs = np.concatenate([x] * n)
            ys = np.concatenate([y] * n)
            return median_ms(lambda: trainer.train_step(xs, ys))
        finally:
            trainer.shutdown()

    out["raysim.dp_step_ms"] = dp_step_ms(replicas)
    if replicas > 1:
        out["raysim.dp_efficiency"] = dp_step_ms(1) / out["raysim.dp_step_ms"]

    if workload == "search_pool":
        from repro.execpool import SharedArrayStore
        from repro.raysim.search import GridSearch
        from repro.raysim.tune import tune_run

        n_trials = 200
        out["raysim.tune_us_per_trial"] = median_ms(lambda: tune_run(
            _noop_trainable,
            search_alg=GridSearch({"i": list(range(n_trials))}))
        ) * 1e3 / n_trials

        arrays = pipeline.split_arrays()
        stores = []

        def publish():
            stores.append(SharedArrayStore(arrays))

        attached = []
        try:
            out["execpool.shm_publish_ms"] = median_ms(publish)
            out["execpool.shm_attach_ms"] = median_ms(
                lambda: attached.append(stores[0].handle.attach()))
        finally:
            for mapping in attached:
                mapping.close()
            for store in stores:
                store.close()
                store.unlink()
    else:
        out["telemetry.hub_overhead_ratio"] = _hub_overhead_ratio(
            workload, seed, run_dir)
    return out


def _hub_overhead_ratio(workload: str, seed: int, run_dir: Path) -> float:
    """Median epoch interval of a short trial with a recording
    ``TelemetryHub`` over the same trial with the null hub."""
    from repro.core import CheckpointManager, MISPipeline, train_trial
    from repro.telemetry import NULL_HUB, TelemetryHub

    settings = settings_for(workload, seed, epochs=12)
    config = first_config(workload)

    def epoch_ms(label: str, hub) -> float:
        records = run_dir / f"hub_{label}" / "records"
        records.mkdir(parents=True)
        reporter = EpochReporter()
        train_trial(
            config, settings,
            MISPipeline(settings, record_dir=records, telemetry=hub),
            num_replicas=spec.WORKLOADS[workload]["replicas"],
            reporter=reporter,
            checkpoint_manager=CheckpointManager(records.parent / "ckpt"),
            telemetry=hub)
        return median(intervals_ms(reporter.arrivals))

    epoch_ms("warm", NULL_HUB)
    return epoch_ms("real", TelemetryHub()) / epoch_ms("null", NULL_HUB)


# == serve workloads ========================================================
def serve_probes(inputs: ServeInputs) -> dict:
    from repro.core import (chunk_bounds, load_checkpoint,
                            sliding_window_spec, stitch_chunks)
    from repro.data import extract_patches
    from repro.nn import UNet3D, workspace_bytes
    from repro.nn.kernels import consume_kernel_seconds
    from repro.serve import BatchKey, MicroBatcher, ModelServer

    cfg = inputs.config
    out: dict[str, float] = {}
    out["nn.model_build_ms"] = median_ms(lambda: UNet3D(**spec.SERVE_MODEL))
    model = UNet3D(**spec.SERVE_MODEL)
    out["core.checkpoint_load_ms"] = median_ms(
        lambda: load_checkpoint(cfg.checkpoint, model))
    volume = inputs.small[0][None]
    model.predict(volume)
    consume_kernel_seconds()
    t0 = now()
    out["nn.predict_ms"] = median_ms(lambda: model.predict(volume), warm=0)
    out["nn.conv_share"] = (sum(consume_kernel_seconds().values())
                            / (now() - t0))
    out["nn.workspace_mb"] = workspace_bytes() / 2 ** 20

    starts = []
    for _ in range(REPEATS + 1):   # the first one is the warm call
        t0 = now()
        with ModelServer(cfg):
            starts.append(now() - t0)
    out["serve.start_ms"] = median(starts[1:]) * 1e3

    key = BatchKey("full_volume", tuple(volume.shape[1:]), "float64")
    n_items = 2000

    def batch_items():
        batcher = MicroBatcher(max_batch=cfg.max_batch,
                               max_delay_s=cfg.max_delay_ms / 1e3)
        for i in range(n_items):
            batcher.add(f"r{i}", key, now=i * 1e-3)
            batcher.due(now=i * 1e-3)

    out["serve.batcher_us_per_item"] = median_ms(batch_items) * 1e3 / n_items

    if inputs.large:
        big = inputs.large[0]
        plan = {}

        def make_plan():
            sw = sliding_window_spec(tuple(cfg.patch_shape), cfg.overlap)
            plan["patches"], plan["offsets"] = extract_patches(big, sw)
            plan["bounds"] = chunk_bounds(len(plan["patches"]),
                                          cfg.sw_batch_size)

        out["core.sw_plan_ms"] = median_ms(make_plan)
        preds = {i: plan["patches"][a:b, :1]
                 for i, (a, b) in enumerate(plan["bounds"])}
        out["core.stitch_ms"] = median_ms(
            lambda: stitch_chunks(preds, plan["offsets"], big.shape[1:]))
    out.update(pool_probes())
    return out
