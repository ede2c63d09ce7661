// Package shmem provides the shared-memory primitives used at the
// host/TEE boundary of every confidential I/O design in this repository.
//
// The package implements the memory-safety building blocks that the paper
// ("Towards (Really) Safe and Fast Confidential I/O", HotOS'23, §3.2)
// demands of a safe L2 interface:
//
//   - Region: a power-of-two sized shared byte area whose accessors mask
//     every offset, so an out-of-range access is unrepresentable rather
//     than merely checked ("safe ring buffer & shared data area ...
//     protected via careful pointer/index masking").
//
//   - Arena: a shared slab allocator designed for mutual distrust
//     (snmalloc-inspired): allocation handles are masked offsets, frees
//     travel as messages, and the trusted side validates ownership before
//     reuse.
//
// Both types are driven by ordinary Go code on both "sides"; the package
// is a simulation substrate, not an actual IPC mechanism. What it
// preserves from the real systems is the sharing discipline: which side
// may touch which bytes, and what each side can observe.
package shmem
