// Corpus for hosttaint's same-function flows: host-controlled indices and
// lengths must be masked or bounds-validated on a terminating path.
package taintlocal

import (
	"safering"
	"shmem"
)

// BadIndex indexes a slice with a raw shared-memory load.
func BadIndex(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	return arr[n] // want "host-controlled value indexes arr"
}

// BadSliceBound bounds a slice with an unvalidated descriptor length.
func BadSliceBound(ring *safering.Ring, buf []byte) []byte {
	d := ring.ReadDesc(0)
	return buf[:d.Len] // want "host-controlled value bounds a slice of buf"
}

// BadMake sizes an allocation from a host-controlled load.
func BadMake(r *shmem.Region) []byte {
	n := r.U64(8)
	return make([]byte, n) // want "host-controlled value sizes an allocation"
}

// BadRegionSlice passes a host-controlled length to Region.Slice, which
// panics on wrap.
func BadRegionSlice(r *shmem.Region, ring *safering.Ring) []byte {
	d := ring.ReadDesc(0)
	return r.Slice(0, int(d.Len)) // want "host-controlled value reaches Region.Slice"
}

// BadIndexLoad uses a peer-published index directly.
func BadIndexLoad(ix *safering.Indexes, seen []bool) bool {
	return seen[ix.LoadProd()] // want "host-controlled value indexes seen"
}

// GoodMasked masks the index so out-of-range is unrepresentable.
func GoodMasked(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	return arr[n&63]
}

// GoodModulo reduces the index by modulo.
func GoodModulo(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	return arr[int(n)%len(arr)]
}

// GoodValidated bounds-checks on a terminating path before use.
func GoodValidated(ring *safering.Ring, buf []byte) []byte {
	d := ring.ReadDesc(0)
	if int(d.Len) > len(buf) || d.Len == 0 {
		return nil
	}
	return buf[:d.Len]
}

// GoodShortCircuit uses the || guard idiom: the index on the right only
// evaluates when the bounds test on the left passed.
func GoodShortCircuit(r *shmem.Region, seen []bool) bool {
	id := r.U32(4)
	if id >= uint32(len(seen)) || !seen[id] {
		return false
	}
	return true
}

// BadNonTerminatingGuard logs and continues: the check rejects nothing,
// so the use below is still unvalidated.
func BadNonTerminatingGuard(ring *safering.Ring, buf []byte, warn func()) []byte {
	d := ring.ReadDesc(0)
	if int(d.Len) > len(buf) {
		warn()
	}
	return buf[:d.Len] // want "host-controlled value bounds a slice of buf"
}

// BadFieldLaundering checks d.Len but then indexes with d.Ref: validation
// is per-field.
func BadFieldLaundering(ring *safering.Ring, slabs []bool) bool {
	d := ring.ReadDesc(0)
	if d.Len == 0 || d.Len > 4096 {
		return false
	}
	return slabs[d.Ref] // want "host-controlled value indexes slabs"
}

// GoodCapped caps a host length against a trusted bound via min.
func GoodCapped(r *shmem.Region, buf []byte) []byte {
	n := int(r.U32(0))
	m := min(n, len(buf))
	return buf[:m]
}

// GoodRetaintCleared overwrites the tainted variable with a trusted value.
func GoodRetaintCleared(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	n = 3
	return arr[n]
}

// BadRevalidateAfterRetaint re-loads after validating: the fresh load is
// tainted again.
func BadRevalidateAfterRetaint(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	if n >= uint32(len(arr)) {
		return 0
	}
	n = r.U32(0)
	return arr[n] // want "host-controlled value indexes arr"
}

// AllowedUnmasked carries the loud opt-out annotation.
func AllowedUnmasked(r *shmem.Region, arr []byte) byte {
	n := r.U32(0)
	//ciovet:allow hosttaint corpus exercises the suppression path
	return arr[n]
}

// BadCompoundAssignIndex uses a host-controlled index on the left of a
// compound assignment.
func BadCompoundAssignIndex(r *shmem.Region, buf []byte) {
	i := r.U32(0)
	buf[i] += 1 // want "host-controlled value indexes buf"
}

// BadCompoundAccumulate folds a host-controlled load into a counter with
// += and indexes with the result.
func BadCompoundAccumulate(r *shmem.Region, buf []byte) byte {
	var total uint32
	total += r.U32(0)
	return buf[total] // want "host-controlled value indexes buf"
}

// BadForInitTaint seeds the loop variable from shared memory; an
// inequality test bounds nothing.
func BadForInitTaint(r *shmem.Region, buf []byte) {
	for i := r.U64(0); i != 0; i-- {
		buf[i] = 0 // want "host-controlled value indexes buf"
	}
}

// BadForDescendingFromHost counts down from a host value: `i > 0` is a
// lower bound, so neither the index nor the trip count is bounded.
func BadForDescendingFromHost(r *shmem.Region, buf []byte) {
	for i := r.U64(0); i > 0; i-- { // want "host-controlled value bounds a loop"
		buf[i] = 0 // want "host-controlled value indexes buf"
	}
}

// GoodForCondGuard: the loop condition upper-bounds the host-seeded
// variable, so every body iteration is in range by construction.
func GoodForCondGuard(r *shmem.Region, buf []byte) {
	for i := r.U64(0); i < uint64(len(buf)); i++ {
		buf[i] = 0
	}
}

// GoodWhileStyleGuard: same bound in while-style form.
func GoodWhileStyleGuard(r *shmem.Region, buf []byte) {
	i := r.U64(8)
	for i < uint64(len(buf)) {
		buf[i] = 0
		i++
	}
}

// BadUseAfterLoopGuard: the loop condition only guards the body; after
// exit the variable holds whatever the host seeded beyond the bound.
func BadUseAfterLoopGuard(r *shmem.Region, buf []byte) byte {
	i := r.U64(0)
	for i < uint64(len(buf)) {
		i++
	}
	return buf[i] // want "host-controlled value indexes buf"
}

// BadRangeValueTaint ranges over a shared-memory view: the element values
// are host bytes.
func BadRangeValueTaint(r *shmem.Region, buf []byte) {
	s := r.Slice(0, 16)
	for _, v := range s {
		buf[v]++ // want "host-controlled value indexes buf"
	}
}

// GoodRangeKeyBounded: the range key is bounded by the construct itself,
// even when the ranged slice is host-controlled.
func GoodRangeKeyBounded(r *shmem.Region) byte {
	s := r.Slice(0, 16)
	var acc byte
	for i := range s {
		acc ^= s[i]
	}
	return acc
}
