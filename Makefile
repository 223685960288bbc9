# Canonical developer commands for the ACQUIRE reproduction.

.PHONY: install test test-fast test-cov corpus-gate corpus-rebuild bench bench-smoke bench-parallel bench-service perfbench-smoke experiments examples clean lint lint-engine typecheck

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Tier-1 minus the slow corpus/differential tests (docs/CORPUS.md).
test-fast:
	pytest tests/ -m "not slow"

# Coverage floor on the refinement core + SQL extension (CI enforces
# it with pytest-cov installed; skipped locally when the plugin is
# missing so offline checkouts still have a working target).
test-cov:
	@if python -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src python -m pytest -q \
			--cov=src/repro/core --cov=src/repro/sqlext \
			--cov-report=term-missing --cov-fail-under=75; \
	else \
		echo "pytest-cov not installed; skipping coverage gate (CI runs it)"; \
	fi

# Quality-regression gate: replays every committed gold-standard
# triple (tests/corpus/data/corpus_manifest.json) through the
# incremental, materialized, capped (auto at a 64-cell cap) and auto
# Explore configurations, asserts 100% oracle-optimality plus stable
# top-k rankings, and prints how many triples the auto search read in
# QScore shells, their shell passes, and how many capped searches went
# on cell by cell past the cap. See docs/CORPUS.md.
corpus-gate:
	PYTHONPATH=src python -m repro.corpus gate

# Regenerate the committed manifest (only after a deliberate scoring
# or corpus change; the diff is the review artifact).
corpus-rebuild:
	PYTHONPATH=src python -m repro.corpus rebuild

# Engine-invariant lint always runs (see docs/ANALYSIS.md: EL1xx
# purity, EL2xx locks, EL3xx exceptions/imports, EL4xx stats drift);
# ruff is skipped with a notice when not installed so offline
# checkouts still get the gate.
lint: lint-engine
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; \
	else \
		echo "ruff not installed; skipping style lint (CI runs it)"; \
	fi

# Fails on any finding not covered by tools/engine_lint_baseline.txt.
lint-engine:
	PYTHONPATH=src python -m repro lint --engine

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# Dependency-light benchmark gate (also run by CI): emits and validates
# BENCH_layers.json + BENCH_explore.json, including the materialized
# round-trip regression guard against BENCH_explore_baseline.json.
bench-smoke:
	PYTHONPATH=src python benchmarks/smoke.py

# Persistent-cache gates only: a warm cross-process cache run answers
# like the cold one while issuing strictly fewer backend queries
# (regression-guarded by BENCH_parallel_baseline.json).
bench-parallel:
	PYTHONPATH=src python benchmarks/smoke.py --parallel-only

# ACQ-as-a-service gates only: closed-loop p50/p99 + throughput vs
# worker count (the 2x worker-scaling gate binds on >=4-core hosts),
# cross-request shared-cache dedupe on the corpus arms, and the serial
# replay's backend-query total regression-guarded by
# BENCH_service_baseline.json. See docs/SERVICE.md.
bench-service:
	PYTHONPATH=src python benchmarks/smoke.py --service-only

# Repository benchmark smoke (also run by CI): every BENCHMARK.json
# workload for 5 s with tracing on; fails unless each run's last JSON
# line reports "correct": true and "failed": 0. Timings are not gated.
perfbench-smoke:
	python tools/perfbench_smoke.py

experiments:
	python -m repro.harness all --save

examples:
	for script in examples/*.py; do echo "== $$script =="; python $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
