#!/usr/bin/env python3
"""Artifact kit: regenerate every quantitative result into ./results/.

Writes one plain-text file per artefact (Table I, Fig 4, cost
decomposition, hybrid sweep, deployment analysis, the full markdown
report), so the whole reproduction can be diffed run-to-run.

Run:  python examples/generate_all_results.py [output_dir]
"""

import sys
from pathlib import Path

from repro.core.report import build_report
from repro.core.runner import DistMISRunner
from repro.core.simulated import best_gpus_per_trial
from repro.perf import (
    DatasetFootprint,
    SpeedupTable,
    TrialConfig,
    calibrated_model,
    epoch_breakdown,
    format_hms,
    paper_search_grid,
    plan_deployment,
)
from repro.cluster import INFINIBAND_EDR


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    out_dir.mkdir(parents=True, exist_ok=True)
    model = calibrated_model()
    grid = paper_search_grid()
    runner = DistMISRunner()

    # Table I
    table = SpeedupTable(model).render()
    (out_dir / "table1.txt").write_text(table + "\n")
    print(f"table1.txt          <- {table.splitlines()[0][:50]}...")

    # Fig 4 (3 jittered runs)
    report = runner.simulate_comparison(num_runs=3, base_seed=0)
    (out_dir / "fig4.txt").write_text(report.render_figure_series() + "\n")
    print("fig4.txt            <- mean/min/max series, both methods")

    # Cost decomposition
    lines = ["data-parallel cost decomposition (fraction of trial time)"]
    cats = ["compute", "straggler_wait", "allreduce", "input",
            "framework", "validation", "fixed"]
    lines.append("gpus " + " ".join(f"{c:>15}" for c in cats))
    for n in (1, 2, 4, 8, 16, 32):
        fr = epoch_breakdown(model, TrialConfig(), n).fractions()
        lines.append(f"{n:>4} " + " ".join(f"{fr[c]:>15.3f}" for c in cats))
    (out_dir / "cost_breakdown.txt").write_text("\n".join(lines) + "\n")
    print("cost_breakdown.txt  <- per-category trial shares")

    # Hybrid sweep
    lines = ["hybrid parallelism sweep at 32 GPUs (20-trial search)"]
    for g, r in sorted(best_gpus_per_trial(grid, model, 32).items()):
        lines.append(
            f"g={g:>2} slots={r.concurrent_slots:>2} "
            f"elapsed={format_hms(r.elapsed_seconds)} "
            f"util={r.mean_gpu_utilization:.0%}"
        )
    (out_dir / "hybrid_sweep.txt").write_text("\n".join(lines) + "\n")
    print("hybrid_sweep.txt    <- the E14 interior optimum")

    # Deployment analysis
    fp = DatasetFootprint()
    lines = [f"dataset footprint: {fp.gib:.1f} GiB"]
    for nodes in (1, 2, 4, 8):
        staged = plan_deployment(fp, nodes, INFINIBAND_EDR,
                                 strategy="stage_to_nodes")
        shared = plan_deployment(fp, nodes, INFINIBAND_EDR,
                                 strategy="shared_fs")
        lines.append(
            f"{nodes} nodes: stage once {staged.upfront_seconds:.0f}s, "
            f"250-epoch run staged {staged.total_seconds(250) / 3600:.2f}h "
            f"vs shared-fs {shared.total_seconds(250) / 3600:.2f}h"
        )
    (out_dir / "deployment.txt").write_text("\n".join(lines) + "\n")
    print("deployment.txt      <- Fig 1 data-deployment stage analysis")

    # Full markdown report
    (out_dir / "report.md").write_text(build_report(num_runs=3))
    print("report.md           <- the complete paper-vs-ours report")

    # One trial's chrome trace for inspection
    run = runner.simulate("experiment_parallel", 8, seed=0)
    run.timeline.to_chrome_trace(out_dir / "ep8_trace.json")
    print("ep8_trace.json      <- open in chrome://tracing")

    print(f"\nall artefacts in {out_dir.resolve()}")


if __name__ == "__main__":
    main()
