GO ?= go

# `make check` is the standard verification entry point (see README.md):
# vet + the ipregel-vet analyzer suite + build + full test suite + a
# race-detector pass over the graph packages (an on-demand in-adjacency
# is built under a lock by whichever reader comes first), the engine and
# the algorithms, whose combiners and span cuts must stay race-clean (the
# race targets run with Config.CheckInvariants enabled in their configs).
.PHONY: check vet ipregel-vet vet-json build test test-cores test-run race race-one-thread fuzz bench bench-core telemetry-smoke ipregeld-smoke membackend-smoke direction-smoke chaos
check: vet ipregel-vet build test race

vet:
	$(GO) vet ./...

# ipregel-vet enforces the framework contracts go vet cannot see
# (handle escapes, halt obligations under selection bypass, combiner
# purity).
ipregel-vet:
	$(GO) run ./cmd/ipregel-vet ./...

# Machine-readable findings (including //ipregel:ignore-suppressed ones,
# flagged "suppressed": true) for dashboards and ignore-inventory audits.
vet-json:
	$(GO) run ./cmd/ipregel-vet -json ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine, algorithm and service suites at 1, 2 and 4 cores, three
# times each: an assertion that only holds on one core count (a float
# push sum compared with ==, DESIGN.md §5.1) fails here, not on whoever
# next runs tier-1 on a different box.
test-cores:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=3 ./internal/core/... ./internal/algorithms/... ./internal/service/... || exit 1; \
	done

# `go test -run` that refuses an empty selection:
#   make test-run PKG=./internal/core/ RUN='ThreadsParity|CombinePanic' FLAGS='-race -count=1'
# go test exits 0 when the regex matches nothing, so a renamed test
# silently drops out of its CI leg. RUN is a plain a|b|c alternation and
# every alternative must select at least one test (go test -list).
test-run:
	@for alt in $$(echo '$(RUN)' | tr '|' ' '); do \
		$(GO) test $(PKG) -list "$$alt" | grep -q '^\(Test\|Fuzz\|Example\)' || \
			{ echo "test-run: -run '$$alt' selects no test in $(PKG)" >&2; exit 1; }; \
	done
	$(GO) test $(FLAGS) $(PKG) -run '$(RUN)'

race:
	$(GO) test -race ./internal/graph/... ./internal/graphio/... ./internal/core/... ./internal/algorithms/... ./internal/telemetry/... ./internal/service/...

# One-thread engines take the plain (lock-free) inbox; ipregeld runs
# several of them at once over one resident graph. With GOMAXPROCS=1 every
# engine whose config leaves Threads at 0 is one too, so the whole core
# and service suites run that shape under the race detector.
race-one-thread:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/core/... ./internal/service/...

# End-to-end check of the live telemetry layer: run a small PageRank
# with -telemetry/-trace on, scrape /metrics, expvar and pprof, and
# validate + replay the JSONL trace through ipregel-trace; then replay
# the trace of a run recovered from an injected panic into the summary
# line ipregel-run printed.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end check of the resident query daemon: boot ipregeld on :0,
# run PageRank + SSSP concurrently, verify the cache hit on an
# identical resubmission and a clean SIGTERM shutdown.
ipregeld-smoke:
	sh scripts/ipregeld_smoke.sh

# End-to-end check of the memory-efficiency tier: IPG3 files smaller
# than IPG1, identical SSSP results across -graph-backend
# flat/compressed/mmap, and ipregeld serving a mapped graph (the
# per-backend heap ordering is memmodel's TestCompressedBackendFootprint).
membackend-smoke:
	sh scripts/membackend_smoke.sh

# End-to-end check of the direction model: -direction push/pull/adaptive
# parity through the CLI, and the adaptive JSONL trace recording pull
# steps and a switch.
direction-smoke:
	sh scripts/direction_smoke.sh

# Fault-injection gauntlet: the kill-anywhere crash matrix (two and
# four threads, flat and compressed adjacency) under the race detector,
# the checkpoint Restore fuzz seeds and rejection fixtures, the
# program/checkpoint aggregator match at Restore, and a scripted
# kill-and-resume of the faulttolerance example and the CLI
# recovery flags (scripts/chaos_smoke.sh).
chaos:
	$(MAKE) test-run PKG=./internal/core/ FLAGS=-race RUN='CrashMatrix|RunWithRecovery|RecoverySkips|FileSink'
	$(MAKE) test-run PKG='./internal/core/ ./internal/algorithms/' RUN='FuzzRestore|RestoreV2DetectsCorruption|RestoreRejectsLegacyV1|CheckpointV2Golden|CheckpointRejectsMultiShard|RestoreAggregatorMismatch'
	sh scripts/chaos_smoke.sh

# Short fuzz pass over every graph parser, the compressed-block decoder
# and the checkpoint restorer (`error, never panic` on arbitrary bytes),
# and over the RMAT kernel (the same edges as the rand.Float64 walk for
# any seed and quadrant probabilities). Lengthen FUZZTIME for a deeper run.
FUZZTIME ?= 10s
fuzz:
	for t in FuzzReadEdgeList FuzzReadKONECT FuzzReadDIMACS FuzzReadBinary; do \
		$(GO) test ./internal/graphio/ -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done
	for t in FuzzBlockDecode FuzzCompressedRoundTrip; do \
		$(GO) test ./internal/graph/ -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzRestore$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gen/ -run='^$$' -fuzz='^FuzzRMATKernel$$' -fuzztime=$(FUZZTIME)

# The hot-primitive microbenchmarks, one `package:name` each: mailbox
# deliver per inbox version — a scatter of one per message, the fused
# scatter, and the fused scatter under bypass, whose fills are the
# frontier enrolment (ns/msg); neighbour decode per backend and access
# order, and the compressed adjacency's open-time validation sweep
# (ns/edge); the pull collect's fold per inbox version (ns per in-edge);
# and Hashmin on a transposed star, every leaf delivering into one hub
# slot, per push combiner and gathered by the broadcast version's
# lock-free collect (the one concurrent hot-slot cell; at -cpu 1 the
# push engines resolve to one thread and their rows coincide, so compare
# the combiners with `go test ./internal/algorithms/ -run '^$' -bench
# Contention -cpu 4`); and each telemetry sink, per 20-superstep run and
# per superstep barrier (ns per start/end hook pair); and the RMAT
# generator, ns per placed edge of a wiki stand-in. It fails when one
# of them no longer exists; CI runs it with BENCHTIME=1x so they cannot
# rot. `make bench` is the same list.
BENCHTIME ?= 1s
CORE_BENCHES = ./internal/core/:BenchmarkDeliver ./internal/graph/:BenchmarkNeighborDecode ./internal/graph/:BenchmarkCompressedCheck ./internal/core/:BenchmarkCollect ./internal/algorithms/:BenchmarkContention ./internal/telemetry/:BenchmarkTelemetryOverhead ./internal/gen/:BenchmarkRMAT
bench: bench-core

bench-core:
	@for pb in $(CORE_BENCHES); do \
		p=$${pb%%:*}; b=$${pb##*:}; \
		$(GO) test $$p -list "^$$b$$" | grep -q "^$$b$$" || \
			{ echo "bench-core: $$b is gone from $$p" >&2; exit 1; }; \
		$(GO) test $$p -run '^$$' -bench "^$$b$$" -benchtime $(BENCHTIME) -cpu 1 || exit 1; \
	done
