GO ?= go

# Packages exercised under the race detector: the ones with real
# cross-goroutine shared state (TCP's connections, which the stack's loop,
# its driven waiters and the application all write; rings, slab pools, the
# core datapath, and the storage stack, whose TEE-held Merkle frontier
# host goroutines and per-tenant volumes reach concurrently, the TDISP
# device, whose firmware loop and TEE side share the link, and the L5
# gated connection, whose Close races a Read blocked below the gate).
RACE_PKGS := ./internal/compartment ./internal/tcp ./internal/safering ./internal/shmem ./internal/core ./internal/nic ./internal/chaos ./internal/blkring ./internal/platform ./internal/gateway ./internal/simnet ./internal/netstack ./internal/cryptdisk ./internal/stio ./internal/tdisp ./internal/virtio ./internal/netvsc

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
# (a hostile guest) — over the stack's receive path (a host's arbitrary
# frames: fragments and non-TCP datagrams must be counted drops that
# reach nothing), and over the data-at-rest layer: a host moving
# versions, tags, tree nodes and platter bytes between the guest's reads
# and writes. -fuzz takes one target per invocation.
fuzz:
	$(GO) test -fuzz '^FuzzDescDecode$$' -fuzztime 30s -run '^$$' ./internal/safering
	$(GO) test -fuzz '^FuzzTXGather$$' -fuzztime 30s -run '^$$' ./internal/safering
	$(GO) test -fuzz '^FuzzInbound$$' -fuzztime 30s -run '^$$' ./internal/netstack
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
# permanent fail-dead, never live-but-corrupt); see EXPERIMENTS.md. The
# attack matrix runs with them: its recovery and tenant cells are these
# scripts, and its gateway column plays on the same tenant world. Five
# runs, not one: the tenant scenarios and the gateway column play a fake
# clock against a live gateway, and an ordering bug between the two
# shows up as a rare flake.
chaos:
	$(GO) test -count=5 -v ./internal/chaos ./internal/attack

# Every long-lived poller runs on one driver (nic.Driver): its stop /
# terminal-error / park / re-check interleavings are timing-dependent, so
# the driver's own tests and its users' — the pump, the storage backend,
# the TDISP device loop — run ten times under the race detector, for the
# same reason chaos takes five. So do the driven-wait tests: a goroutine
# blocked in tcp steps the stack's receive poller under the same token as
# the loop goroutine, and hands the queues' wake back when it leaves; its
# step only drains and parks, so the timer and clock tests check that the
# loop goroutine still runs the timers and that a waiter reads no clock.
# And so does the one park every ring consumer shares (safering.Consumer:
# the guest's receive, the host's pop, the storage backend): its register /
# re-check order against the producer's store-then-poke, with the tests
# that park on it and the hostile-producer-index table, and its lock-free
# idle probe (the Idle tests and TestTCPSurvivesHotSwap), which a Swap or
# Reincarnate races. And so do the
# recycling tests: the wire's frame buffers go back to the port once the
# pump's push copied them (nic's steering test is in ./internal/nic), and
# tcp's waiters take their wake from a pool, so a frame read after
# Release, or a wake used after it went back, is a race reported here.
# And so does the one stall rule (safering.Aging): the watchdog's
# background scanner polls queues the datapath is writing, and the
# gateway's PollStalls ages the progress counters its relay goroutines
# bump. And so do safering's pump tests: their event-idx pumps arm every
# queue of a network's one host poller, which the guests' transmit index
# stores wake from the guests' goroutines. And so do the doorbell and
# event-idx tests: a bell is only the model's charge, and the seal race
# pins that a ring racing Seal is either counted stale or charged, never
# both. And so do the gated connection's tests with tcp's
# no-reference test: compartment.Conn refills its transmit buffer with no
# gate call between one send's submit and the next, so a transport that
# reads the buffer after its Write returned races the next fill.
race-pump:
	$(GO) test -race -count=10 ./internal/nic ./internal/blkring ./internal/tdisp
	$(GO) test -race -count=10 -run '^TestDriven|^TestTimersRunWhileAReaderWaits$$|^TestEchoClockReads$$' ./internal/netstack
	$(GO) test -race -count=10 -run 'Park|Wake|Consumer|Watchdog|Pump|Idle|HotSwap|Doorbell|EventIdx' ./internal/safering
	$(GO) test -race -count=10 -run 'Stall' ./internal/gateway
	$(GO) test -race -count=10 -run 'Release' ./internal/simnet
	$(GO) test -race -count=10 -run 'WakesWithoutAllocating' ./internal/tcp
	$(GO) test -race -count=10 -run '^TestConn|^TestWriteKeepsNoReference' ./internal/compartment ./internal/tcp

# The dead-code oracle (ROADMAP item 4d): every non-test function the
# attack, chaos, core, gateway, netstack and confbench suites and the
# fuzz seed corpora never reach, by package, then every statement block
# of safering, blkring and cryptdisk they never execute; the committed
# DEAD.txt is the list EXPERIMENTS.md triages.
dead:
	scripts/dead.sh | tee DEAD.txt

# The full verification gate, in increasing order of cost.
check: fmt vet build ciovet test race
