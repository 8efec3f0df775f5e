# Tiered checks for the reproduction.
#
#   make test    — tier-1: lint (when ruff is available) + the whole
#                  tests/ tree once (ROADMAP verify); the suite targets
#                  below select parts of it
#   make lint    — ruff over src/ (config in pyproject.toml); skipped
#                  with a notice when ruff is not installed
#   make faults  — just the fault-injection crash-recovery suite
#                  (docs/durability.md)
#   make concurrent — just the differential concurrency suite
#                  (docs/concurrency.md)
#   make serve-test — just the network serving suite (docs/serving.md)
#   make shard-test — just the shard-per-core suite: manifest,
#                  coordinator, scatter-gather properties and the
#                  kill-one-shard fault case (docs/sharding.md)
#   make repl-test — just the replication suite: WAL shipping,
#                  catch-up, failover, time travel
#                  (docs/replication.md)
#   make elastic-test — just the elasticity suite: online migration
#                  chaos/crashpoint cases, the differential property
#                  interleavings, rebalance plans and resize, and the
#                  follower-resync cases
#                  (docs/sharding.md, elastic shards)
#   make stress  — bounded, seeded reader/writer soak (default 30s;
#                  tune with STRESS_SECONDS / STRESS_SEED)
#   make paper   — tier-2: every paper experiment + ablation at
#                  REPRO_BENCH_SCALE, and the group-commit sweep
#                  (writers 1/2/4 beside two readers, fsync durability);
#                  prints the tables and claims, writes
#                  PAPER_RESULTS.json, fails when a claim does not hold
#   make bench-shard — scatter-gather scale-out sweep over shard
#                  counts, differential-verified against the
#                  single-engine oracle (emits BENCH_shard_scaleout.json)
#   make bench-repl — read scale-out over followers + steady-state
#                  replication lag (emits BENCH_replication.json)
#   make pairs PARENT=<rev> WORKLOAD=<w|all> [PAIRS=10] [OUT=file.json]
#                  — alternating parent/change runs of the BENCHMARK.json
#                  command (tools/pairs.py) on one workload or all of
#                  them: medians, quartiles, pairs won and a verdict per
#                  metric; OUT also writes every run as JSON.
#                  wire_read and wire_mixed time the network server

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
REPRO_BENCH_SCALE ?= 0.12
STRESS_SECONDS ?= 30
STRESS_SEED ?= 777
PAIRS ?= 10

.PHONY: test lint faults concurrent serve-test shard-test repl-test \
	elastic-test stress paper bench-shard bench-repl pairs

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

faults:
	$(PYTHON) -m pytest tests/faults -q

concurrent:
	$(PYTHON) -m pytest tests/concurrent -q

serve-test:
	$(PYTHON) -m pytest tests/server -q

shard-test:
	$(PYTHON) -m pytest tests/shard tests/concurrent/test_shard_faults.py -q

repl-test:
	$(PYTHON) -m pytest tests/repl -q

elastic-test:
	$(PYTHON) -m pytest tests/shard/test_migration_faults.py \
	    tests/shard/test_elastic_property.py \
	    tests/shard/test_elastic_placement.py \
	    tests/repl/test_elastic_resync.py -q

stress:
	REPRO_STRESS_SECONDS=$(STRESS_SECONDS) REPRO_STRESS_SEED=$(STRESS_SEED) \
	$(PYTHON) -m pytest tests/concurrent -q -s

test: lint
	$(PYTHON) -m pytest -x -q

paper:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) $(PYTHON) -m repro.bench.paper

bench-shard:
	$(PYTHON) -m repro.bench.shard

bench-repl:
	$(PYTHON) -m repro.bench.repl

pairs:
	$(PYTHON) tools/pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) $(if $(OUT),--out $(OUT))
