// Package safering implements the paper's safe-by-construction L2
// confidential I/O interface (§3.2, "Hardening L2"): a from-scratch
// paravirtual NIC transport between a guest TEE and an untrusted host,
// exchanging raw Ethernet frames over shared memory.
//
// The five design principles map onto the implementation as follows:
//
//  1. Stateless interface. The entire protocol state is two monotonic
//     64-bit indexes per ring (producer and consumer position). There is
//     no negotiation, no feature bits, no configuration messages, no
//     error/recovery sub-protocol: a peer that violates the protocol is a
//     fatal condition (ErrProtocol), never something to re-synchronize
//     with. Descriptors are self-contained; no operation depends on a
//     previous one.
//
//  2. Copy as a first-class citizen. The guest snapshots each descriptor
//     exactly once (single fetch) before validating it, and copies
//     payloads exactly once, early — or not at all when the configured
//     policy makes the copy provably unnecessary (inline slots consumed
//     in place after snapshot, or receive-side page revocation).
//
//  3. No notifications. The default mode is polling; Doorbell is an
//     optional, stateless, idempotent, coalescing edge trigger for
//     workloads that cannot poll. Notifications never carry data, so a
//     spurious, dropped, or replayed doorbell can at worst cause an
//     extra poll.
//
//  4. Zero (re-)negotiation. DeviceConfig (MAC, MTU, checksum policy,
//     ring geometry) is immutable after construction and known to both
//     sides at deployment time. There is no control plane to attack.
//
//  5. Safe ring buffer and shared data area. Ring sizes, slot sizes and
//     data-area slabs are powers of two; every shared-memory offset a
//     peer can influence is masked (shmem.Region), so out-of-range
//     access is unrepresentable. Indexes taken from the peer are checked
//     for monotonicity and bounds, then used only modulo the ring size.
//
// The package also implements the performance explorations of §3.2:
// three data-positioning modes (payload inline in the ring, in a separate
// shared area named by masked handles, or in that area behind a
// mask-protected indirect table of one entry per slot), safe buffer
// freeing via arena generation tags and consumption indexes, and
// receive-side page revocation as an alternative to the receive copy.
package safering
