# Convenience targets for the RAE reproduction.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: all install lint lint-json lint-github lint-contracts lint-concurrency lint-persistence lint-commute crash-surface replay-matrix sweep sweep-smoke test bench bench-obs bench-hotpath bench-hotpath-check hotpath-baseline perfbench-smoke experiments examples verify clean

# Default flow: static analysis first (fast), then the tier-1 suite.
all: lint test

install:
	$(PYTHON) setup.py develop

lint:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings

lint-json:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings --format=json

# GitHub workflow-command annotations: findings render inline on the PR
# diff.  CI uses this for the main lint step; lint-json stays the
# machine-readable ratchet format.
lint-github:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --fail-on-findings --format=github

# One rule family alone, with the ratchet check: fails on any finding
# not in raelint.baseline.json AND on baseline entries that no longer
# fire (the baseline may only shrink).  `--select` resolves a family
# name to every rule in it, so these targets never drift from the rule
# registry.
lint-contracts:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --select contracts --check-baseline --fail-on-findings

# The concurrency rules alone (same shape as lint-contracts): the race
# detector and async-discipline checks for the parallel-recovery arc.
lint-concurrency:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --select concurrency --check-baseline --fail-on-findings

# The crash-consistency ordering rules alone (same shape): the static
# half of the durability story — flush barriers, declared persistence
# protocols, and fault-hook coverage of every persistence point.
lint-persistence:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --select persistence --check-baseline --fail-on-findings

# The replay-commutativity rules alone (same shape): footprint parity
# against the reviewed spec, vocabulary coverage of every write, and
# shard isolation — the static half of sharded replay.
lint-commute:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --select commute --check-baseline --fail-on-findings

# Regenerate the committed crash-surface catalog (ROADMAP item 3's
# sweep work-list).  CI runs this and fails on `git diff` drift, so the
# catalog can never silently fall behind the code.
crash-surface:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --emit-crash-surface crashpoints.json

# Regenerate the committed replay matrix (ROADMAP item 4's shard
# surface).  Same drift discipline as crash-surface: CI re-emits and
# fails on `git diff`.
replay-matrix:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro --emit-replay-matrix replaymatrix.json

# Execute the full crash-point sweep: every (op, point) pair of the
# committed catalog, both crash kinds, drift-checked work-list, exit 1
# on any unsanctioned non-clean outcome (see docs/FAULT_SWEEP.md).
sweep:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.sweep

# Bounded sweep for CI: one profile, short workloads, capped case count.
# Failing tuples write reproducer bundles under sweep-bundles/ which the
# workflow uploads as artifacts.
sweep-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.sweep --smoke --bundle-dir sweep-bundles

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The observability ablation alone, producing BENCH_obs.json and then
# FAILING (not skipping) if the artifact is missing or malformed — the
# schema gate is what keeps the CI artifact trustworthy.
bench-obs:
	$(PYTHONPATH_SRC) BENCH_OBS_PATH=BENCH_obs.json $(PYTHON) -m pytest benchmarks/test_ablation_obs_overhead.py --benchmark-only -q -s
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.obs.check BENCH_obs.json

# The hot-path throughput artifact (ROADMAP item 2): run every mix via
# rae-bench, then FAIL (not skip) if BENCH_hotpath.json is missing or
# malformed — same schema-gate discipline as bench-obs.
bench-hotpath:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.bench --out BENCH_hotpath.json
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.obs.check BENCH_hotpath.json

# The perf ratchet against the committed baseline (exit 1 on regression
# beyond the tolerance bands; see docs/OBSERVABILITY.md).
bench-hotpath-check:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.bench --check-baseline --artifact BENCH_hotpath.json

# Deliberately ratchet hotpath.baseline.json forward from a fresh run.
# Commit the result — CI compares every run against it.
hotpath-baseline:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.bench --out BENCH_hotpath.json --update-baseline

# One-second perfbench runs with their correctness gate: a traced
# append_fsync pass (fails loudly if a method the tracer patches by name
# is renamed away) and an untraced fault_recovery pass (KernelBug on
# every 5th dir.insert: reboot, shadow replay and hand-off).
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload append_fsync --seed 1 --seconds 1 --trace 1
	$(PYTHON) perfbench/run.py --workload fault_recovery --seed 1 --seconds 1 --trace 0

experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/crafted_image_attack.py
	$(PYTHON) examples/webserver_survival.py
	$(PYTHON) examples/post_error_testing.py
	$(PYTHON) examples/process_isolation.py

verify:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.tools verify --depth 3

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
