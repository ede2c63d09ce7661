package cryptdisk

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"confio/internal/blockdev"
)

// Tests for the frontier: the one tree level the TEE holds. It is
// bounded whatever the volume size, and the host's slots at and above it
// are dead state — the guest never writes them and never reads them.

// TestFrontierIsBounded: a volume holds one level of at most
// 1<<frontierMax nodes (32 KiB) at every size, and garbage in every Meta
// slot at or above the cut changes no read, no write and no Root.
func TestFrontierIsBounded(t *testing.T) {
	for _, n := range []int{1, 8, 1 << frontierMax, deep, 1 << 20} {
		cd, _, err := Format(hugeDisk{n: uint64(n)}, n, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := min(n, 1<<frontierMax)
		if len(cd.front) != want || len(cd.front)<<cd.levels != n {
			t.Errorf("%d sectors: frontier of %d nodes %d levels above the leaves, want %d nodes", n, len(cd.front), cd.levels, want)
		}
	}

	honest, _, _ := volume(t, deep)
	cd, meta, _ := volume(t, deep)
	garble := func(round int) {
		for i := 1; i < 2*len(cd.front); i++ {
			meta.TamperNode(i, [32]byte{byte(round), byte(i), byte(i >> 8), 0xA5})
		}
	}
	rng := rand.New(rand.NewSource(3))
	data, got, want := make([]byte, 4*blockdev.SectorSize), make([]byte, 4*blockdev.SectorSize), make([]byte, 4*blockdev.SectorSize)
	for round := 0; round < 300; round++ {
		garble(round)
		if cd.Root() != honest.Root() {
			t.Fatalf("round %d: garbage above the cut moved Root", round)
		}
		// Spans over the first 64 sectors, so they meet each other's paths.
		lba, span := uint64(rng.Intn(60)), (1+rng.Intn(4))*blockdev.SectorSize
		if rng.Intn(3) == 0 {
			rng.Read(data[:span])
			if err := honest.WriteSectors(lba, data[:span]); err != nil {
				t.Fatal(err)
			}
			if err := cd.WriteSectors(lba, data[:span]); err != nil {
				t.Fatalf("round %d: write with garbage above the cut: %v", round, err)
			}
			continue
		}
		if err := honest.ReadSectors(lba, want[:span]); err != nil {
			t.Fatal(err)
		}
		if err := cd.ReadSectors(lba, got[:span]); err != nil || !bytes.Equal(got[:span], want[:span]) {
			t.Fatalf("round %d: read with garbage above the cut: %v", round, err)
		}
	}
	if cd.Root() != honest.Root() {
		t.Fatal("garbage above the cut moved Root")
	}
}

// The host's moves and the guest's operations FuzzHostMeta interleaves.
const (
	opRead    = iota // the guest reads a span
	opWrite          // the guest writes a span
	opVersion        // the host rewrites a sector's version
	opTag            // the host rewrites a sector's tag
	opNode           // the host rewrites a host-held node (a leaf)
	opAbove          // the host rewrites a Meta slot at or above the cut
	opPlatter        // the host flips platter bits
	nOps
)

// hostStep encodes one FuzzHostMeta step in its three bytes: op (low
// three bits), count-1 (next two) and the lba's top three bits; the lba's
// low byte; a value.
func hostStep(op, lba, count int, v byte) []byte {
	return []byte{byte(op | (count-1)<<3 | lba>>8<<5), byte(lba), v}
}

// FuzzHostMeta interleaves the guest's reads and writes with a host that
// moves what it holds, on a volume with one host-held level below the
// frontier: a sector's version or tag, a host-held node, a Meta slot at
// or above the cut, a platter byte. A read returns exactly what the guest
// last wrote or ErrIntegrity. A sector no move reaches — its record, its
// platter sector, a host-held node on or beside its path — reads and
// writes without error, so a move above the cut never causes one.
//
// A program is at most 32 steps (hostStep): every input formats a
// volume, and the engine's minimiser runs a short input quadratically.
func FuzzHostMeta(f *testing.F) {
	const n = 2 << frontierMax
	f.Add(slices.Concat(hostStep(opWrite, 0, 4, 7), hostStep(opAbove, 9, 1, 1), hostStep(opRead, 0, 4, 0)))
	f.Add(slices.Concat(hostStep(opWrite, 4, 1, 2), hostStep(opVersion, 4, 1, 9), hostStep(opRead, 3, 4, 0), hostStep(opWrite, 5, 1, 3)))
	f.Add(slices.Concat(hostStep(opWrite, 8, 2, 4), hostStep(opPlatter, 8, 1, 11), hostStep(opRead, 8, 2, 0), hostStep(opWrite, 8, 2, 5)))
	f.Add(slices.Concat(hostStep(opWrite, n-2, 2, 1), hostStep(opNode, n-1, 1, 6), hostStep(opRead, n-2, 2, 0),
		hostStep(opWrite, n-2, 2, 2), hostStep(opTag, n-1, 1, 1), hostStep(opAbove, 1, 1, 0)))
	f.Fuzz(func(t *testing.T, prog []byte) {
		cd, meta, phys := volume(t, n)
		depth := bits.Len(uint(n)) - 1
		stamp := make([]int, n)    // 1 + the value of the sector's last write; 0 unwritten
		moved := make([]bool, n)   // a host move reached the sector
		moveUnder := func(i int) { // every sector under heap node i
			shift := depth - (bits.Len(uint(i)) - 1)
			for lba := i<<shift - n; lba < (i+1)<<shift-n; lba++ {
				moved[lba] = true
			}
		}
		fill := func(p []byte, lba, st int) {
			clear(p)
			if st != 0 {
				for i := range p {
					p[i] = byte(st) ^ byte(lba) ^ byte(i*7+1)
				}
			}
		}
		buf, want := make([]byte, 4*blockdev.SectorSize), make([]byte, blockdev.SectorSize)
		prog = prog[:min(len(prog), 32*3)]
		for step := 0; len(prog) >= 3; step, prog = step+1, prog[3:] {
			lba := (int(prog[0]>>5)<<8 | int(prog[1])) % n
			count, v := min(1+int(prog[0]>>3&3), n-lba), prog[2]
			span := buf[:count*blockdev.SectorSize]
			anyMoved := false
			for k := lba; k < lba+count; k++ {
				anyMoved = anyMoved || moved[k]
			}
			switch int(prog[0]&7) % nOps {
			case opRead:
				err := cd.ReadSectors(uint64(lba), span)
				if err != nil {
					if !errors.Is(err, ErrIntegrity) || !anyMoved {
						t.Fatalf("step %d: read of %d+%d, no move reached it: %v", step, lba, count, err)
					}
					continue
				}
				for k := 0; k < count; k++ {
					fill(want, lba+k, stamp[lba+k])
					if !bytes.Equal(span[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], want) {
						t.Fatalf("step %d: sector %d read bytes the guest never wrote there", step, lba+k)
					}
				}
			case opWrite:
				for k := 0; k < count; k++ {
					fill(span[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], lba+k, int(v)+1)
				}
				if err := cd.WriteSectors(uint64(lba), span); err != nil {
					if !errors.Is(err, ErrIntegrity) || !anyMoved {
						t.Fatalf("step %d: write of %d+%d, no move reached it: %v", step, lba, count, err)
					}
					continue
				}
				for k := lba; k < lba+count; k++ {
					stamp[k] = int(v) + 1
				}
			case opVersion:
				meta.TamperVersion(uint64(lba), uint64(v))
				moved[lba] = true
			case opTag:
				meta.TamperTag(uint64(lba), [TagSize]byte{v, 1})
				moved[lba] = true
			case opNode:
				meta.TamperNode(n+lba, [32]byte{v, 2})
				moveUnder((n + lba) / 2)
			case opAbove: // never read, so it reaches nothing
				meta.TamperNode(1+lba%(2*len(cd.front)-1), [32]byte{v, 3})
			case opPlatter:
				sec := buf[:blockdev.SectorSize]
				if err := phys.ReadSector(uint64(lba), sec); err != nil {
					t.Fatal(err)
				}
				sec[int(v)*16] ^= 1 | v
				if err := phys.WriteSector(uint64(lba), sec); err != nil {
					t.Fatal(err)
				}
				moved[lba] = true
			}
		}
	})
}
