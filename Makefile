GO ?= go

# Packages exercised under the race detector: the ones with real
# cross-goroutine shared state (rings, slab pools, the core datapath, and
# the storage stack, whose TEE-held Merkle frontier host goroutines and
# per-tenant volumes reach concurrently, and the TDISP device, whose
# firmware loop and TEE side share the link).
RACE_PKGS := ./internal/safering ./internal/shmem ./internal/core ./internal/nic ./internal/chaos ./internal/blkring ./internal/platform ./internal/gateway ./internal/simnet ./internal/netstack ./internal/cryptdisk ./internal/stio ./internal/tdisp

.PHONY: all build test race vet ciovet vet-update-baseline fuzz fmt bench bench-smoke bench-pairs chaos race-pump dead check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

# ciovet runs the confio-specific analyzers (doublefetch, hosttaint,
# sharedatomic, fatalviolation, sharedescape, latchclear, bufown,
# lockdisc) in dependency order with cross-package facts; see
# DESIGN.md "Static analysis" and §13. The gate is two-sided: any
# unsuppressed diagnostic fails, and the //ciovet:allow suppression
# multiset must match the audited baseline exactly — new opt-outs and
# stale records both fail.
ciovet:
	$(GO) run ./cmd/ciovet -json -baseline ciovet_baseline.json ./...

# After auditing a new (or removed) //ciovet:allow, re-record the baseline.
vet-update-baseline:
	$(GO) run ./cmd/ciovet -baseline ciovet_baseline.json -update ./...

# Short adversarial fuzzing pass over both sides' descriptor validation —
# the guest's RX decode (a hostile host) and the honest host's TX gather
# (a hostile guest) — over IPv4 fragmentation (the stack's fragment
# writer against its reassembler, and a host's fragments against the
# reassembler), and over the data-at-rest layer: a host moving versions,
# tags, tree nodes and platter bytes between the guest's reads and
# writes. -fuzz takes one target per invocation.
fuzz:
	$(GO) test -fuzz '^FuzzDescDecode$$' -fuzztime 30s -run '^$$' ./internal/safering
	$(GO) test -fuzz '^FuzzTXGather$$' -fuzztime 30s -run '^$$' ./internal/safering
	$(GO) test -fuzz '^FuzzFragment$$' -fuzztime 30s -run '^$$' ./internal/ipv4
	$(GO) test -fuzz '^FuzzHostMeta$$' -fuzztime 30s -run '^$$' ./internal/cryptdisk

fmt:
	gofmt -l .
	@test -z "$$(gofmt -l .)"

# Every root micro-benchmark (bench_*_test.go) into the committed
# BENCH.txt, in Go's benchmark format, one line per row, so `git diff
# BENCH.txt` reads a regeneration against its predecessor
# (EXPERIMENTS.md indexes the rows). Model and count columns repeat —
# exactly on the ring, storage-ring and transport rows; the design
# worlds' poll counts follow the run's timing, l2-virtio's most — and
# wall columns are the host's. TestBenchFileListsEveryBenchmark fails
# when the file no longer lists what the package declares.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . > BENCH.txt || { cat BENCH.txt; exit 1; }
	cat BENCH.txt

# The benchmarks' smoke: confbench (bench/, the gated benchmark
# BENCHMARK.json declares) in its count-bounded mode — every workload
# once, every byte verified, no bounds — then every root micro-benchmark
# for one iteration.
bench-smoke:
	$(GO) run ./bench -smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Ten alternated pairs of confbench, BASE against the working tree, read
# with `bench -diff` — how EXPERIMENTS.md reads every wall-clock claim.
# BENCHFLAGS go to both sides (e.g. '-workload echo-small -seconds 10').
N ?= 10
bench-pairs:
	scripts/bench-pairs.sh $(BASE) $(N) $(BENCHFLAGS)

# Chaos-host fault injection: scripted fault scenarios plus seeded-random
# storms, each asserting the recovery invariant (clean new epoch or
# permanent fail-dead, never live-but-corrupt); see EXPERIMENTS.md. Five
# runs, not one: the tenant scenarios play a fake clock against a live
# gateway, and an ordering bug between the two shows up as a rare flake.
chaos:
	$(GO) test -count=5 -v ./internal/chaos

# Every long-lived poller runs on one driver (nic.Driver): its stop /
# terminal-error / park / re-check interleavings are timing-dependent, so
# the driver's own tests and its users' — the pump, the storage backend,
# the TDISP device loop — run ten times under the race detector, for the
# same reason chaos takes five.
race-pump:
	$(GO) test -race -count=10 ./internal/nic ./internal/blkring ./internal/tdisp

# The dead-code oracle (ROADMAP item 4d): every non-test function the
# attack, chaos, core, gateway, netstack and confbench suites never reach,
# by package; the committed DEAD.txt is the list EXPERIMENTS.md triages.
dead:
	scripts/dead.sh | tee DEAD.txt

# The full verification gate, in increasing order of cost.
check: fmt vet build ciovet test race
