# Convenience targets for the DistMIS reproduction.

PYTHON ?= python3

.PHONY: install test lint verify-cores smoke profile-smoke monitor-smoke serve-smoke sim-smoke bench bench-parallel bench-kernels examples report api-docs results clean

install:
	PIP_NO_BUILD_ISOLATION=false pip install -e .

test:
	$(PYTHON) -m pytest tests/

# ruff when available, else the dependency-free fallback in tools/lint.py;
# always gate the committed BENCH_*.json records on the record schema
# and the Chrome-trace export contract (self-test exercises the real
# merged-trace writer including the request-tracing spans)
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools examples benchmarks perfbench; \
	else \
		echo "ruff not found; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py src tests tools examples benchmarks perfbench; \
	fi
	$(PYTHON) tools/check_bench_schema.py
	PYTHONPATH=src $(PYTHON) tools/check_trace_schema.py

# the absolute bit pins (trained model bytes, fused kernel outputs,
# search outcomes) once per OpenBLAS core family: the host default,
# then Haswell, SandyBridge and Prescott forced by the per-process
# OPENBLAS_CORETYPE; one pass/fail row each, non-zero exit only when
# they fail on the family they were recorded on
verify-cores:
	$(PYTHON) tools/verify_cores.py

smoke: profile-smoke monitor-smoke serve-smoke sim-smoke
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/fault_tolerance.py
	DISTMIS_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_process_parallel_speedup.py \
		benchmarks/test_kernel_backends.py -q -s

# profiled search end-to-end at smoke scale, by both methods (one
# driver, so the data-parallel run writes the same run directory):
# live progress table, merged trace + profile.json, bottleneck verdict,
# the E5 online-vs-offline pipeline profile, overhead benchmark
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli search \
		--subjects 6 --volume 8 8 8 --epochs 1 \
		--base-filters 2 --depth 2 --losses dice \
		--profile /tmp/distmis_profile_smoke
	PYTHONPATH=src $(PYTHON) -m repro.cli profile /tmp/distmis_profile_smoke
	PYTHONPATH=src $(PYTHON) -m repro.cli search \
		--subjects 6 --volume 8 8 8 --epochs 1 \
		--base-filters 2 --depth 2 --losses dice \
		--method data_parallel --gpus 2 \
		--profile /tmp/distmis_profile_smoke_dp
	PYTHONPATH=src $(PYTHON) -m repro.cli profile /tmp/distmis_profile_smoke_dp
	PYTHONPATH=src $(PYTHON) tools/check_trace_schema.py \
		/tmp/distmis_profile_smoke_dp/trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli profile \
		--subjects 4 --volume 32 32 16 --epochs 2
	DISTMIS_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_profiler_overhead.py -q -s

# paper-scale simulated runs of the three methods, plus two under GPU
# failures (checkpoint resume; one scratch retry, then abandonment):
# every run directory's merged trace (driver spans + the simulated
# timeline, one lane per GPU) must satisfy the viewer contract; then
# the Table I re-fit of the cost model
SIM_SMOKE := /tmp/distmis_sim_smoke
sim-smoke:
	for method in experiment_parallel data_parallel hybrid; do \
		PYTHONPATH=src $(PYTHON) -m repro.cli simulate $$method 8 \
			--telemetry $(SIM_SMOKE)/$$method || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.cli simulate experiment_parallel 8 \
		--failures mtbf=43200,repair=600 \
		--telemetry $(SIM_SMOKE)/failures
	PYTHONPATH=src $(PYTHON) -m repro.cli simulate experiment_parallel 8 \
		--failures mtbf=43200,repair=600 --max-retries 1 --resume scratch \
		--telemetry $(SIM_SMOKE)/failures_scratch
	PYTHONPATH=src $(PYTHON) tools/check_trace_schema.py \
		$(SIM_SMOKE)/experiment_parallel/trace.json \
		$(SIM_SMOKE)/data_parallel/trace.json \
		$(SIM_SMOKE)/hybrid/trace.json \
		$(SIM_SMOKE)/failures/trace.json \
		$(SIM_SMOKE)/failures_scratch/trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli calibrate

# tiny live-monitored search with --watch on a non-TTY: asserts the
# streaming export really streams (events.jsonl + final health snapshot)
monitor-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli search \
		--subjects 6 --volume 8 8 8 --epochs 1 \
		--base-filters 2 --depth 2 --losses dice \
		--telemetry /tmp/distmis_monitor_smoke --watch </dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli top /tmp/distmis_monitor_smoke
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.telemetry import read_events; \
	evs = read_events('/tmp/distmis_monitor_smoke/events.jsonl'); \
	kinds = [e['type'] for e in evs]; \
	assert 'snapshot' in kinds, kinds; \
	assert kinds[-1] == 'health', kinds[-1]; \
	print(f'monitor-smoke OK: {len(evs)} events')"

# tiny checkpoint served by 2 replicas under open-loop load: asserts
# the quarantined serving record lands with its latency percentiles,
# the kept request traces render as waterfalls, and the exported
# merged trace satisfies the viewer contract
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve-bench \
		--rps 25 --duration 2 --replicas 2 \
		--volume 8 8 8 --base-filters 2 --depth 2 \
		--large-every 5 --large-volume 16 16 16 --patch-size 8 8 8 \
		--full-volume-max-voxels 512 \
		--smoke --out /tmp/distmis_serve_smoke/BENCH_serving_smoke.json \
		--telemetry /tmp/distmis_serve_smoke/run
	$(PYTHON) tools/check_bench_schema.py \
		/tmp/distmis_serve_smoke/BENCH_serving_smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.cli trace /tmp/distmis_serve_smoke/run
	PYTHONPATH=src $(PYTHON) tools/check_trace_schema.py \
		/tmp/distmis_serve_smoke/run/trace.json
	PYTHONPATH=src $(PYTHON) -c "\
	import json; \
	rec = json.load(open( \
	    '/tmp/distmis_serve_smoke/BENCH_serving_smoke.json')); \
	lat = rec['latency_seconds']; \
	assert rec['smoke'] is True; \
	assert rec['requests']['completed'] >= 50, rec['requests']; \
	assert 0 < lat['p50'] <= lat['p95'] <= lat['p99'], lat; \
	assert rec['throughput_rps'] > 0; \
	assert rec['mixed_workload']['large']['count'] >= 1, rec['mixed_workload']; \
	print(f'serve-smoke OK: {rec[\"requests\"][\"completed\"]} requests, ' \
	      f'p99 {lat[\"p99\"] * 1e3:.1f} ms')"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# serial vs 4-worker process pool on the same search; writes
# benchmarks/BENCH_parallel.json (DISTMIS_BENCH_SMOKE=1 for a tiny budget)
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_process_parallel_speedup.py -q -s

# the fused conv backend against the reference oracle (x float64/float32)
# on a per-replica U-Net train step; writes benchmarks/BENCH_kernels.json
# (speedup floor, parity, per-backend rows, host info)
bench-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_kernel_backends.py -q -s

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

report:
	$(PYTHON) -m repro.cli report --output report.md

api-docs:
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py

results:
	$(PYTHON) examples/generate_all_results.py results/

# the git-ignored local benchmark records:
# repro.perf.regression.UNTRACKED_RECORDS (listed in .gitignore)
clean:
	rm -rf results report.md .pytest_cache
	rm -f benchmarks/BENCH_parallel.json \
		benchmarks/BENCH_profiler_overhead.json \
		benchmarks/BENCH_live_overhead.json \
		benchmarks/BENCH_trace_overhead.json
	find . -name __pycache__ -type d -exec rm -rf {} +
