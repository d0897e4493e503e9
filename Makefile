# Continuous-integration entry point: `make check` is what a CI job
# runs — a clean build plus the full tier-1 test suite, including the
# bounded-seed simulation-testing tier (test/check).
#
# Set JOBS=N to fan simulation sweeps out over N worker domains
# (default: the binary's own default, the machine's recommended domain
# count).  Output is byte-identical for every N; JOBS=1 spawns no
# domain.

JOBS ?=
JOBS_FLAG = $(if $(JOBS),--jobs $(JOBS),)

.PHONY: all build test check sim-check sim-matrix fuzz fleet perfbench-check socket-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Full CI gate.
check: build test

# Longer fault-plan exploration than the bounded tier-1 run; prints a
# seed and a minimal fault plan on any invariant violation.
sim-check: build
	dune exec bin/firefly.exe -- check --seeds 100 $(JOBS_FLAG)

# The CI sweep: seeded fault plans against every cell of the
# configuration matrix, dumping shrunk plans + traces on failure.
sim-matrix: build
	dune exec bin/firefly.exe -- check --matrix --seeds 5 --out-dir check-failures $(JOBS_FLAG)

# Deterministic wire-format fuzz: the canary self-test first (plants a
# decoder bug and requires the fuzzer to find it), then a fixed-seed
# run over mutated frames.  Minimized reproducers land in fuzz-failures/
# on any property violation.
fuzz: build
	dune exec bin/firefly.exe -- fuzz --canary --seed 1 --iters 5000
	dune exec bin/firefly.exe -- fuzz --seed 1 --iters 50000 --corpus-dir fuzz-failures

# Fleet smoke: a 4-node 200-call incast through the switched topology,
# with the scenario invariants checked (conservation, no leaked sinks,
# no stuck callers) and a Perfetto trace of the run written out.
fleet: build
	dune exec bin/firefly.exe -- fleet --nodes 4 --clients 16 --calls 200 \
	  --scenario incast --check --trace --out fleet-incast.trace.json

# Real loopback-UDP smoke: null and maxarg over 127.0.0.1 with the
# simulator's exact frame bytes, printed as measured-vs-calibrated
# cross-validation.  Exits 0 with a message where sockets are
# unavailable.
socket-smoke: build
	dune exec bin/firefly.exe -- call --transport socket --calls 200

# Host-cost benchmark self-test: every perfbench workload briefly, end
# to end and traced; fails unless each metric BENCHMARK.json names is
# printed with its unit, no call fails, and the simulated-output digest
# repeats across runs of a seed.
perfbench-check: build
	python3 perfbench/run.py --self-test

clean:
	dune clean
