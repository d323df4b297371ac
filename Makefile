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

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr3_telemetry.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr4_analysis.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr5_kernel.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr6_checkpoint.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr7_wan.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr8_attribution.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr9_live.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr10_service.py
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Bench-regression gate (mirrors the CI bench-regression job):
# regenerate the PR4 analysis bench (fails on >5% monitor overhead),
# the PR5 kernel bench (fails below 3x event-kernel speedup or on any
# fixed-vs-event measure mismatch), and the PR6 checkpoint bench
# (fails when checkpoint writes cost >5% of wall time at the default
# cadence, or when a checkpointed or crashed-and-resumed run is not
# bit-identical to a plain one), and the PR7 WAN bench (fails unless
# the rescue ladder completes 100% of the migrations the fixed LAN
# policy aborts across the workload x WAN-profile matrix, with kernel
# bit-identity, crash/resume equivalence and doctor attribution), and
# the PR8 attribution bench (fails when building and auditing the
# conservation-checked ledgers costs >5% of wall time, or when any
# invariant is violated), then diff their deterministic simulated
# measures (downtime, total time, wire bytes, retransmitted bytes)
# against the checked-in baselines with `repro compare` — >5% growth
# on any gated measure fails.  The PR9 live bench additionally fails
# when tailing a streamed export and maintaining the fleet board costs
# >5% wall time over batch telemetry, or when any tailed board differs
# from its post-mortem recomputation bit-for-bit.  The PR10 service
# bench fails when multiplexing 64 concurrent sessions costs >10% wall
# time per migration over running them sequentially, or when any
# session's payload — report, page-version digest, attribution ledger —
# differs from its standalone run, including after a kill+resume.
check-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr4_analysis.py /tmp/BENCH_PR4_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR4.json /tmp/BENCH_PR4_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR3.json /tmp/BENCH_PR4_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr5_kernel.py /tmp/BENCH_PR5_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR5.json /tmp/BENCH_PR5_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr6_checkpoint.py /tmp/BENCH_PR6_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR6.json /tmp/BENCH_PR6_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr7_wan.py /tmp/BENCH_PR7_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR7.json /tmp/BENCH_PR7_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr8_attribution.py /tmp/BENCH_PR8_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR8.json /tmp/BENCH_PR8_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr9_live.py /tmp/BENCH_PR9_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR9.json /tmp/BENCH_PR9_candidate.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr10_service.py /tmp/BENCH_PR10_candidate.json
	PYTHONPATH=src $(PYTHON) -m repro.cli compare BENCH_PR10.json /tmp/BENCH_PR10_candidate.json

figures:
	$(PYTHON) -m repro.cli all

all-experiments: figures

# The two artifacts the reproduction ships with.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
