PY := PYTHONPATH=src python

.PHONY: default test test-fast lint sim-smoke sim-campaign chaos-smoke wm-smoke engine-smoke autoscale-smoke pushdown-smoke doctor-smoke designer-smoke bench bench-smoke perf obs-demo

# Default flow: lint, then the tier-1 suite.
default: lint test

# Tier-1: the full test suite (includes the marked `sim` campaigns).
test:
	$(PY) -m pytest -x -q

# Inner-loop subset: everything except the sim campaigns and slow sweeps.
test-fast:
	$(PY) -m pytest -x -q -m "not sim and not slow and not chaos and not wm and not autoscale and not pushdown and not doctor and not designer"

# Lint with ruff when available; fall back to a syntax sweep (compileall)
# so `make lint` is meaningful in offline environments without ruff.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to python -m compileall"; \
		$(PY) -m compileall -q src tests benchmarks examples; \
	fi

# Quick simulation confidence check: the seeded multi-seed campaigns only.
sim-smoke:
	$(PY) -m pytest tests/test_simulation.py -m sim -q

# Recovery-path confidence check: the chaos-boosted campaigns
# (mid-query failover, S3 outage windows, rebalancer) only.
chaos-smoke:
	$(PY) -m pytest tests/test_chaos.py -m chaos -q

# Workload-manager confidence check: query-storm-boosted campaigns with
# the wm-slot-accounting invariant (slots == running queries, zero leaks).
wm-smoke:
	$(PY) -m pytest tests/test_wm_campaign.py -m wm -q

# Autoscaler confidence check: autoscale-boosted chaos campaigns (the
# autoscale-safety invariant after every step), the hibernate/revive
# digest round-trip, and the scaled-down diurnal trace.
autoscale-smoke:
	$(PY) -m pytest tests/test_autoscale_campaign.py -m autoscale -q

# Engine confidence check: join-fragment, interrupt and metrics tests, plus
# the property tests comparing query answers against stdlib sqlite3.
engine-smoke:
	$(PY) -m pytest tests/test_engine_differential.py tests/test_engine_property.py -m engine -q

# Pushdown confidence check: the scan-strategy differential + property wall
# (pushdown on/off bit-identical digests and depot demand) plus the
# pushdown-race simulation campaigns.
pushdown-smoke:
	$(PY) -m pytest tests/test_pushdown_differential.py tests/test_pushdown_property.py tests/test_pushdown_campaign.py -m pushdown -q

# Doctor confidence check: the four overload scenario campaigns (every
# logged probe must diagnose to its injected cause) and the 5-seed
# recording bit-identity wall.
doctor-smoke:
	$(PY) -m pytest tests/test_doctor.py -m doctor -q

# Designer confidence check: the cost-based designer's property wall
# (emitted DDL parses, binds, and stays inside the schema), the TPC-H
# apply differential (bit-identical digests across re-designs), and the
# redesign-boosted campaigns with the designer-digest-parity invariant.
designer-smoke:
	$(PY) -m pytest tests/test_designer_property.py tests/test_designer_differential.py tests/test_designer_campaign.py -m designer -q

# Longer chaos run straight from the CLI (prints per-seed digests).
sim-campaign:
	$(PY) -m repro.sim --seeds 25

bench:
	$(PY) -m pytest benchmarks -q

# Quick benchmark confidence check: the Fig-10 TPC-H bench (including the
# I/O scheduler on/off ablation) at its tiny default scale, BENCH JSON out.
bench-smoke:
	$(PY) -m pytest benchmarks/bench_fig10_tpch.py -q -s

# End-to-end host/sim numbers from eonbench: the three gated workloads at
# seed 1 and at the held-out seed 7919, each workload's result JSON line.
# Run from the repo root; about 20 s of timed work per run.
PERF_WORKLOADS := tpch-warm tpch-spill ingest-trickle
PERF_SEEDS := 1 7919
perf:
	@for seed in $(PERF_SEEDS); do \
		for w in $(PERF_WORKLOADS); do \
			out=$$(python3 eonbench/run.py --workload $$w --seed $$seed) || exit 1; \
			printf '%s seed %s: %s\n' $$w $$seed "$$(printf '%s\n' "$$out" | tail -n 1)"; \
		done; \
	done

# Observability walkthrough: trace a TPC-H query, print the span tree,
# the operator profile, and sample v_monitor system-table queries.
obs-demo:
	$(PY) examples/obs_demo.py
