GO ?= go

.PHONY: build test bench bench-paper race vet docs-lint fuzz-smoke check daemon-smoke drift-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the numeric-kernel and model micro-benchmarks (mlkit +
# linalg; see internal/mlkit/perf_bench_test.go) with a fixed -benchtime
# and records machine-readable results in BENCH_PR3.json under the
# "current" label via cmd/benchjson (best of -count runs per benchmark,
# which filters noisy-neighbour interference on shared machines).
# Re-run on a baseline checkout with BENCH_LABEL=baseline to fill in the
# before/after speedup table.
# It then runs the batch-vs-streaming engine benchmarks (see
# internal/core/stream_bench_test.go), whose peak-B custom metric — the
# live-heap high-water mark of a test-mode run — lands in BENCH_PR4.json.
# Finally it runs the sequential-vs-pipelined streaming benchmarks
# (BenchmarkPipeline*: CPU-bound and IO-bound source, 1 and N workers;
# peak-B heap high-water mark plus inflight-B pump buffering) into
# BENCH_PR5.json, and the flow-sharded sink scaling set
# (BenchmarkShardSink*: the same sink-bound pass at 1/2/4/8 flow-hash
# lanes) into BENCH_PR6.json. Shard throughput scales with cores; on a
# single-core host the expected ratio is ~1x (see DESIGN.md).
# The decode fast-path set (BenchmarkDecode*: eager full-stack vs lazy
# views per depth; BenchmarkSourceStage*: the chunked source stage
# across {eager,lazy}×{buffered,mmap}) lands in BENCH_PR8.json.
# The watch-ingest fast-path set (BenchmarkDirSource*: the daemon's
# rotated-capture source stage, buffered vs mmap+lazy — the acceptance
# bar is mmap ≥ 2× buffered — plus BenchmarkShardSinkLazy*: lazy view
# chunks flowing through the flow-sharded sink) lands in BENCH_PR10.json.
# The test-mode scoring set (BenchmarkForestScore{Split,Fused}: the
# replay workload's 50-tree forest scored by Predict then Proba versus
# one PredictProba pass; BenchmarkKitNETScore) lands in BENCH_PR12.json
# with -count=5, so each entry carries min/median/max and GOMAXPROCS.
BENCH_LABEL ?= current
bench:
	$(GO) test -bench=. -benchtime=300ms -count=3 -run='^$$' ./internal/mlkit/... \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR3.json
	$(GO) test -bench=BenchmarkStream -benchtime=1x -count=3 -run='^$$' ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR4.json
	$(GO) test -bench=BenchmarkPipeline -benchtime=5x -count=3 -run='^$$' ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR5.json
	$(GO) test -bench=BenchmarkShard -benchtime=5x -count=3 -run='^$$' ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR6.json
	$(GO) test -bench='BenchmarkDecode|BenchmarkSourceStage' -benchtime=300ms -count=3 -run='^$$' ./internal/dataset/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR8.json
	( $(GO) test -bench=BenchmarkDirSource -benchtime=5x -count=3 -run='^$$' ./internal/daemon/ && \
	  $(GO) test -bench=BenchmarkShardSinkLazy -benchtime=5x -count=3 -run='^$$' ./internal/core/ ) \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR10.json
	$(GO) test -bench='BenchmarkForestScore|BenchmarkKitNETScore' -benchmem -benchtime=300ms -count=5 -run='^$$' ./internal/mlkit/ \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_PR12.json

# bench-paper runs the paper table/figure reproduction benchmarks once each.
bench-paper:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

vet:
	$(GO) vet ./...

# race runs the concurrency-sensitive packages (engine/cache singleflight,
# streaming engine + staged pipeline + flow-sharded sink lanes — the
# core suite sweeps every dataset × chunk size × execution shape
# including multi-shard, and the fast-path equivalence sweep runs lazy
# view chunks through those shard lanes, so this is the shard
# equivalence gate — chunk pump and decoder buffer pool, refcounted
# pcap mappings under concurrent chunk release, flow assemblers, span
# tracer, benchsuite worker pool, the mlkit/linalg row-parallel
# kernels, and the resident daemon: pipeline lifecycle, hot swap under
# live ingest, live sources including mmap+lazy watch ingest with
# rotation under load, the HTTP control surface, and the lumend binary
# end to end) under the race detector. The online-learning paths ride along: the core suite's
# prequential equivalence tests sweep test-then-train streams across
# chunk sizes and execution shapes, the daemon suite exercises the
# drift-triggered background retrain racing live scoring, and the
# benchsuite suite runs the three-arm drifting prequential benchmark.
race:
	$(GO) test -race ./internal/core/... ./internal/dataset/... ./internal/pcap/... ./internal/netpkt/... ./internal/features/... ./internal/flow/... ./internal/benchsuite/... ./internal/obs/... ./internal/mlkit/... ./internal/daemon/... ./cmd/lumend/...

# docs-lint enforces the documentation floor (see doclint_test.go):
# package comments everywhere under internal/ and cmd/, doc comments on
# every exported symbol of internal/obs and internal/core.
docs-lint:
	$(GO) test -run TestDocLint .

# daemon-smoke boots lumend on a small replayed capture, then asserts
# that at least one JSONL alert line was written and that every pipeline
# reported a clean stop. This is the cheap end-to-end gate for the
# resident daemon path (see OPERATIONS.md).
daemon-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/lumend -pipeline examples/daemon-hot-swap/pipeline.json \
		-train F1 -train-scale 0.05 -replay-dataset F1 -replay-scale 0.05 \
		-chunk-rows 64 -listen "" \
		-alerts $$tmp/alerts.jsonl -connlog $$tmp/conn.log >$$tmp/out.txt 2>&1 \
		|| { echo "daemon-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	head -1 $$tmp/alerts.jsonl | grep -q '"pipeline"' \
		|| { echo "daemon-smoke: no alert line"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "daemon-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "daemon-smoke: OK ($$(wc -l < $$tmp/alerts.jsonl) alerts, conn-log $$(wc -l < $$tmp/conn.log) lines)"; \
	rm -rf $$tmp

# drift-smoke is the end-to-end gate for the online-learning loop: it
# trains the drift-retrain example pipeline on Mirai traffic (P1), then
# replays a P1-then-P4 drifting stream — mid-replay the traffic turns
# into ARP MitM, a distribution the model has never seen — with
# drift-triggered retraining enabled. The two-sided Page-Hinkley monitor
# fires on the score collapse, the daemon refits on fresh post-drift
# rows in the background, and the candidate must pass the shadow gate
# into an auto-promoted generation before drain.
drift-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/lumend -pipeline examples/drift-retrain/pipeline.json \
		-train P1 -train-scale 0.5 -replay-dataset P1,P4 -replay-scale 1.0 \
		-chunk-rows 64 -replay-delay 15ms -listen "" \
		-retrain -retrain-fresh -retrain-min-rows 128 -retrain-cooldown 4 \
		-shadow-chunks 2 -max-disagree 1 \
		-alerts $$tmp/alerts.jsonl -metrics-out $$tmp/metrics.prom >$$tmp/out.txt 2>&1 \
		|| { echo "drift-smoke: lumend failed"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q ' stopped: ' $$tmp/out.txt \
		|| { echo "drift-smoke: no clean shutdown"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'swap promoted by auto' $$tmp/out.txt \
		|| { echo "drift-smoke: retrained model was not promoted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	grep -q 'lumen_retrain_total' $$tmp/metrics.prom \
		|| { echo "drift-smoke: no retrain counted"; cat $$tmp/out.txt; rm -rf $$tmp; exit 1; }; \
	echo "drift-smoke: OK ($$(grep -c . $$tmp/alerts.jsonl) alerts, $$(grep 'lumen_drift_events_total{' $$tmp/metrics.prom | head -1))"; \
	rm -rf $$tmp

# fuzz-smoke gives each differential decoder fuzz target (lazy
# PacketView vs eager Decode; see internal/netpkt/view_fuzz_test.go) a
# short budget on top of its checked-in corpus. Go runs one -fuzz
# pattern per invocation, so each target gets its own line.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzViewEthernet -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/
	$(GO) test -fuzz=FuzzViewDot11 -fuzztime=$(FUZZTIME) -run='^$$' ./internal/netpkt/

# check is the CI gate: static analysis, race-clean concurrency paths,
# the documentation lint, and a short differential-fuzz pass over the
# decoder fast path.
check: vet race docs-lint fuzz-smoke
	$(GO) build ./...
