PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke bench bench-smoke fuzz fuzz-smoke lint clean

test:
	$(PYTHON) -m pytest -x -q

# Fast end-to-end pass: every registered experiment with smoke
# parameters, serial vs parallel, writing results/runtime_smoke.json —
# then the full parallel run against the cache.
smoke:
	$(PYTHON) -m repro smoke
	$(PYTHON) -m repro all --json --jobs 4 > /dev/null

# Wall-clock perf harness (docs/performance.md): times every registered
# experiment at smoke AND full parameters, records which backend served
# fig8's ETC queue runs, and rewrites the committed BENCH_sim.json
# baseline.
bench:
	$(PYTHON) -m repro bench --repeats 3

# CI's perf gate: smoke parameters only, compared against the committed
# baseline; exits nonzero on a >25% wall-clock regression.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --repeats 3 \
		--baseline BENCH_sim.json --out BENCH_smoke.json --check

# Differential fuzzing (docs/fuzzing.md): seed-deterministic guest
# programs run across all three execution modes with the oracle suite
# armed.
# `fuzz` is the developer campaign; `fuzz-smoke` is CI's gate — a
# 25-run clean campaign, a bug-calibration campaign that must find and
# shrink a violation, and a replay of every committed counterexample.
fuzz:
	$(PYTHON) -m repro fuzz --seed 2019 --jobs 4

fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 2019 --runs 25 --jobs 4
	$(PYTHON) -m repro fuzz --seed 2019 --runs 5 --ops 12 \
		--bug drop-redirect --expect-violation > /dev/null
	$(PYTHON) -m repro fuzz --corpus tests/fuzz/corpus

# Three gates, strictest first.  svtlint ships with the repo and always
# runs; ruff and mypy are optional in the offline evaluation image and
# are skipped quietly when not installed.  Any finding from any
# installed gate exits nonzero so CI can rely on `make lint`.
lint:
	$(PYTHON) -m repro lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping ruff"; \
	fi
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping mypy"; \
	fi

clean:
	rm -rf results/cache .pytest_cache .svtlint_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
