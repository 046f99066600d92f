"""E9/E10 -- ablations over the simulated design space.

Not tables from the paper; these sweep the design choices DESIGN.md
calls out, answering "why does the Table I gap look like this?":

* node size M (GPUs per node) -- how much of data parallel's overhead
  is the inter-node boundary;
* interconnect bandwidth -- InfiniBand vs 10GbE;
* straggler jitter sigma -- the dominant fitted overhead;
* scheduler policy -- Ray Tune FIFO vs LPT for experiment parallelism;
* ASHA early stopping -- what adaptive scheduling would add on top;
* (E10) pipeline/model parallelism -- the paper's future-work sketch.
"""

import math

from conftest import once

from repro.cluster import (
    ETHERNET_10G,
    INFINIBAND_EDR,
    NVLINK2,
    V100_16GB,
    ClusterSpec,
    NodeSpec,
    POWER9_NODE,
)
from repro.cluster.modelparallel import plan_pipeline_parallel
from repro.perf import (
    MARENOSTRUM_CTE_PROFILE,
    PAPER_SPATIAL,
    StepCostModel,
    calibrated_model,
    data_parallel_search_time,
    experiment_parallel_search_time,
    paper_search_grid,
    unet3d_forward_flops,
)


def _speedup32(model, grid, method):
    fn = (data_parallel_search_time if method == "dp"
          else experiment_parallel_search_time)
    return fn(model, grid, 1) / fn(model, grid, 32)


class TestClusterAblations:
    def test_node_size_sweep(self, benchmark):
        """Bigger nodes keep more of the all-reduce on NVLink."""
        grid = paper_search_grid()

        def sweep():
            out = {}
            for m in (2, 4, 8, 16):
                node = NodeSpec(
                    name=f"node{m}", num_gpus=m, gpu=V100_16GB,
                    cpu_cores=40, cpu_ghz=2.4,
                    host_memory_bytes=POWER9_NODE.host_memory_bytes,
                )
                spec = ClusterSpec(num_nodes=math.ceil(32 / m), node=node)
                model = StepCostModel(params=MARENOSTRUM_CTE_PROFILE,
                                      cluster=spec)
                out[m] = _speedup32(model, grid, "dp")
            return out

        result = once(benchmark, sweep)
        print("\n=== E9a: data-parallel 32-GPU speed-up vs node size M ===")
        for m, s in result.items():
            print(f"  M={m:>2} GPUs/node -> x{s:.2f}")
        # monotone: fewer node boundaries, better scaling
        vals = list(result.values())
        assert vals[-1] >= vals[0] - 0.05

    def test_interconnect_sweep(self, benchmark):
        grid = paper_search_grid()

        def sweep():
            out = {}
            for link in (INFINIBAND_EDR, ETHERNET_10G):
                spec = ClusterSpec(num_nodes=8, node=POWER9_NODE,
                                   inter_link=link)
                model = StepCostModel(params=MARENOSTRUM_CTE_PROFILE,
                                      cluster=spec)
                out[link.name] = (
                    _speedup32(model, grid, "dp"),
                    _speedup32(model, grid, "ep"),
                )
            return out

        result = once(benchmark, sweep)
        print("\n=== E9b: 32-GPU speed-up vs inter-node fabric ===")
        for name, (dp, ep) in result.items():
            print(f"  {name:<16} dp x{dp:.2f}   ep x{ep:.2f}")
        # experiment parallelism is fabric-insensitive; data parallelism
        # loses ground on the slow fabric.
        ib, eth = result[INFINIBAND_EDR.name], result[ETHERNET_10G.name]
        assert eth[0] <= ib[0] + 1e-9
        assert abs(eth[1] - ib[1]) < 0.2

    def test_straggler_sigma_sweep(self, benchmark):
        grid = paper_search_grid()

        def sweep():
            out = {}
            for sigma in (0.0, 0.1, 0.25, 0.4):
                params = MARENOSTRUM_CTE_PROFILE.with_overrides(
                    straggler_sigma=sigma
                )
                model = StepCostModel(params=params)
                out[sigma] = _speedup32(model, grid, "dp")
            return out

        result = once(benchmark, sweep)
        print("\n=== E9c: data-parallel 32-GPU speed-up vs jitter sigma ===")
        for sigma, s in result.items():
            print(f"  sigma={sigma:.2f} -> x{s:.2f}")
        vals = list(result.values())
        assert all(a >= b for a, b in zip(vals, vals[1:])), \
            "more jitter must hurt synchronous scaling"
        # Without jitter, only quantisation + collectives remain and the
        # curve moves far above the calibrated x13 -- jitter is the
        # dominant fitted overhead.
        assert vals[0] > 16

    def test_scheduler_policy(self, benchmark):
        grid = paper_search_grid()
        model = calibrated_model()

        def sweep():
            out = {}
            for n in (8, 12, 16, 32):
                fifo = experiment_parallel_search_time(model, grid, n,
                                                       policy="fifo")
                lpt = experiment_parallel_search_time(model, grid, n,
                                                      policy="lpt")
                out[n] = (fifo, lpt)
            return out

        result = once(benchmark, sweep)
        print("\n=== E9d: Ray Tune FIFO vs LPT makespan (hours) ===")
        for n, (fifo, lpt) in result.items():
            print(f"  {n:>2} GPUs: fifo {fifo/3600:6.2f}  lpt {lpt/3600:6.2f}")
        for fifo, lpt in result.values():
            assert lpt <= fifo + 1e-9


class TestDataDeployment:
    def test_deployment_strategies(self, benchmark):
        """E9e -- the Fig 1 'data deployment' stage: staging the ~79 GiB
        binarised cohort to node-local storage vs reading the shared FS
        every epoch; bounds why deployment is invisible in Table I."""
        from repro.perf import DatasetFootprint, plan_deployment, staging_time

        def sweep():
            fp = DatasetFootprint()
            out = {}
            for nodes in (1, 2, 4, 8):
                shared = plan_deployment(fp, nodes, INFINIBAND_EDR,
                                         strategy="shared_fs")
                staged = plan_deployment(fp, nodes, INFINIBAND_EDR,
                                         strategy="stage_to_nodes")
                out[nodes] = (
                    staging_time(fp, nodes, INFINIBAND_EDR),
                    shared.total_seconds(250),
                    staged.total_seconds(250),
                )
            return out

        result = once(benchmark, sweep)
        print("\n=== E9e: data deployment over 250 epochs (hours) ===")
        print(f"{'nodes':>5} {'stage once':>11} {'shared-FS run':>14} "
              f"{'staged run':>11}")
        for nodes, (stage, shared, staged) in result.items():
            print(f"{nodes:>5} {stage/3600:>11.2f} {shared/3600:>14.2f} "
                  f"{staged/3600:>11.2f}")
        for nodes, (stage, shared, staged) in result.items():
            assert staged < shared            # staging wins over a full run
            assert stage < 0.1 * 44 * 3600    # and is <10% of the search


class TestModelParallelFutureWork:
    def test_pipeline_parallel_sketch(self, benchmark):
        """E10 -- Section V-C: pipeline-split training unlocks batch > 2
        at the cost of bubbles + boundary traffic."""
        flops = 3 * unet3d_forward_flops() * 2  # fwd+bwd, batch 2

        def sweep():
            out = {}
            for stages in (1, 2, 4):
                out[stages] = plan_pipeline_parallel(
                    total_step_flops=flops,
                    spatial=PAPER_SPATIAL,
                    gpu=V100_16GB,
                    link=NVLINK2,
                    num_stages=stages,
                    batch_per_step=2,
                )
            return out

        plans = once(benchmark, sweep)
        print("\n=== E10: pipeline-parallel future-work sketch ===")
        print(f"{'stages':>6} {'step (s)':>9} {'bubble':>7} "
              f"{'mem/stage (GiB)':>16} {'max batch':>10}")
        for s, p in plans.items():
            print(f"{s:>6} {p.step_time_s:>9.3f} {p.bubble_fraction:>7.2f} "
                  f"{p.per_stage_memory_bytes/2**30:>16.2f} "
                  f"{p.max_feasible_batch:>10}")

        assert plans[1].bubble_fraction == 0.0
        # splitting raises the feasible batch (the motivation)...
        assert plans[4].max_feasible_batch > plans[1].max_feasible_batch
        # ...and lowers per-stage memory
        assert plans[4].per_stage_memory_bytes < plans[1].per_stage_memory_bytes
        # but costs bubble overhead per step
        assert plans[4].bubble_fraction > plans[2].bubble_fraction > 0
