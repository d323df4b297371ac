# Convenience targets for the JAVMM reproduction.

PYTHON ?= python

.PHONY: install test lint bench check-bench figures all-experiments clean

install:
	pip install -e . --no-build-isolation

# Mirrors CI (.github/workflows/ci.yml): run from the source tree,
# no install step required.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Mirrors the CI lint job; requires ruff (pip install ruff).
lint:
	ruff check src tests benchmarks examples bench

# The paper's shape checks (mirrors the CI paper-shapes job): every
# figure and table of the evaluation regenerated once, its measured
# rows printed next to the paper's, and its shape asserted.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -s

# Wall-clock overhead gates (mirrors the CI bench-regression job): the
# optional layers (telemetry, online analysis, attribution, live
# streaming, checkpointing), the event kernel's speedup on quiet sweeps
# and the service's multiplexing each stay within their bound; see
# benchmarks/overheads.py.  Simulated outcomes are pinned exactly by
# the test suite instead (tests/test_outcome_pins.py).
check-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/overheads.py

figures:
	$(PYTHON) -m repro.cli all

all-experiments: figures

# The two artifacts the reproduction ships with.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
