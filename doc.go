// Package confio is a from-scratch reproduction of "Towards (Really)
// Safe and Fast Confidential I/O" (HotOS 2023): a safe-by-construction
// paravirtual NIC interface, a dual-boundary (ternary trust) confidential
// I/O architecture, the legacy baselines it is measured against, and the
// simulation substrates — shared memory, TEE platform costs, a network
// stack, a secure channel, compartments, an adversarial host — needed to
// run all of it on a laptop.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record. The benchmarks in bench_*_test.go
// regenerate the performance rows (`make bench` writes them to
// BENCH.txt), ./bench is the gated end-to-end benchmark, and
// cmd/cioattack and cmd/ciofig print the attack matrix and Figures 2–4.
package confio
