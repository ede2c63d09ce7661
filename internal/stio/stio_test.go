package stio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"confio/internal/blockdev"
	"confio/internal/cryptdisk"
	"confio/internal/observe"
	"confio/internal/tcb"
)

func TestFileWorkloadAcrossDesigns(t *testing.T) {
	for _, id := range Designs() {
		t.Run(string(id), func(t *testing.T) {
			w, err := NewWorld(id)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			res, err := w.RunFiles(3, 8, 256)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 3*8*2 {
				t.Fatalf("ops = %d", res.Ops)
			}
		})
	}
}

func TestStorageObservabilityClasses(t *testing.T) {
	want := map[DesignID]observe.Class{
		HostFiles:   observe.ClassXL, // names + plaintext
		BlockRing:   observe.ClassM,  // block pattern only
		DualStorage: observe.ClassM,
	}
	for id, wantClass := range want {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunFiles(2, 4, 128); err != nil {
			w.Close()
			t.Fatal(err)
		}
		if got := w.Observability().Class(); got != wantClass {
			t.Errorf("%s obs = %s, want %s (%s)", id, got, wantClass, w.Observability())
		}
		w.Close()
	}
}

func TestStorageTCBClasses(t *testing.T) {
	coreHF, _ := TCBOf(HostFiles)
	coreBR, _ := TCBOf(BlockRing)
	coreDS, totalDS := TCBOf(DualStorage)
	if coreHF.Class() != tcb.ClassS {
		t.Errorf("host-files core = %s", coreHF.Class())
	}
	if coreDS.Class() != tcb.ClassS {
		t.Errorf("dual-storage core = %s (%d)", coreDS.Class(), coreDS.Total())
	}
	if coreBR.Total() <= coreDS.Total() {
		t.Errorf("block-ring core %d should exceed dual core %d", coreBR.Total(), coreDS.Total())
	}
	if totalDS.Total() <= coreDS.Total() {
		t.Error("dual TEE total should exceed its core")
	}
	if c, tt := TCBOf("nope"); c.Name != "" || tt.Name != "" {
		t.Error("unknown design produced profiles")
	}
}

func TestHostSeesPlaintextOnlyInHostFiles(t *testing.T) {
	for _, id := range Designs() {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Ops().Create("secrets.db", 16<<10); err != nil {
			w.Close()
			t.Fatal(err)
		}
		secret := bytes.Repeat([]byte("CLASSIFIED-"), 20)
		if err := w.Ops().Write("secrets.db", 0, secret); err != nil {
			w.Close()
			t.Fatal(err)
		}
		leaked := bytes.Contains(w.Snoop(), []byte("CLASSIFIED-"))
		if id == HostFiles && !leaked {
			t.Errorf("%s: expected plaintext on platter", id)
		}
		if id != HostFiles && leaked {
			t.Errorf("%s: plaintext leaked to platter", id)
		}
		w.Close()
	}
}

func TestPlatterCorruptionDetectedByBlockDesigns(t *testing.T) {
	for _, id := range []DesignID{BlockRing, DualStorage} {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Ops().Create("f", 16<<10); err != nil {
			w.Close()
			t.Fatal(err)
		}
		if err := w.Ops().Write("f", 0, bytes.Repeat([]byte{7}, 256)); err != nil {
			w.Close()
			t.Fatal(err)
		}
		// Host corrupts every data sector on the platter.
		raw := make([]byte, blockdev.SectorSize)
		for lba := uint64(0); lba < w.Phys().Sectors(); lba++ {
			w.Phys().ReadSector(lba, raw)
			raw[1] ^= 0xFF
			w.Phys().WriteSector(lba, raw)
		}
		buf := make([]byte, 256)
		_, err = w.Ops().Read("f", 0, buf)
		if !errors.Is(err, cryptdisk.ErrIntegrity) && !errors.Is(err, ErrSealed) {
			t.Errorf("%s: corruption not detected: %v", id, err)
		}
		w.Close()
	}
}

func TestHostFilesCorruptionGoesUndetected(t *testing.T) {
	// The lift-and-shift contrast: the host silently alters tenant data.
	w, err := NewWorld(HostFiles)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Ops().Create("f", 8192); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 256)
	if err := w.Ops().Write("f", 0, want); err != nil {
		t.Fatal(err)
	}
	// Find and flip the data on the platter.
	raw := make([]byte, blockdev.SectorSize)
	for lba := uint64(0); lba < w.Phys().Sectors(); lba++ {
		w.Phys().ReadSector(lba, raw)
		if raw[0] == 7 && raw[1] == 7 {
			raw[0] = 0xEE
			w.Phys().WriteSector(lba, raw)
			break
		}
	}
	buf := make([]byte, 256)
	n, err := w.Ops().Read("f", 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf[:n], want) {
		t.Fatal("corruption did not land (test bug)")
	}
	// No error: the guest accepted tampered data — the compromise.
}

func TestRollbackDetectedByBlockDesigns(t *testing.T) {
	w, err := NewWorld(BlockRing)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Ops().Create("ledger", 16<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.Ops().Write("ledger", 0, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	// Snapshot the whole platter + metadata (full-disk rollback).
	var snapPlatter [][]byte
	for lba := uint64(0); lba < w.Phys().Sectors(); lba++ {
		s := make([]byte, blockdev.SectorSize)
		w.Phys().ReadSector(lba, s)
		snapPlatter = append(snapPlatter, s)
	}
	var metaSnaps []cryptdisk.SnapshotFor
	for lba := uint64(0); lba < volumeSectors; lba++ {
		metaSnaps = append(metaSnaps, w.Meta().Snapshot(lba))
	}

	// New state.
	if err := w.Ops().Write("ledger", 0, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err)
	}

	// Rollback everything.
	for lba, s := range snapPlatter {
		w.Phys().WriteSector(uint64(lba), s)
	}
	for _, ms := range metaSnaps {
		w.Meta().Restore(ms)
	}

	buf := make([]byte, 128)
	if _, err := w.Ops().Read("ledger", 0, buf); !errors.Is(err, cryptdisk.ErrIntegrity) {
		t.Fatalf("full-disk rollback not detected: %v", err)
	}
}

func TestCostProfiles(t *testing.T) {
	tee := map[DesignID]uint64{}
	gate := map[DesignID]uint64{}
	for _, id := range Designs() {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunFiles(2, 4, 128); err != nil {
			w.Close()
			t.Fatal(err)
		}
		c := w.Costs()
		tee[id], gate[id] = c.TEECrossings, c.GateCrossings
		w.Close()
	}
	if tee[HostFiles] == 0 {
		t.Error("host-files never crossed the TEE")
	}
	if tee[BlockRing] != 0 || tee[DualStorage] != 0 {
		t.Errorf("block designs crossed the TEE: %d / %d", tee[BlockRing], tee[DualStorage])
	}
	if gate[DualStorage] == 0 {
		t.Error("dual-storage never crossed its gate")
	}
	if gate[BlockRing] != 0 {
		t.Error("block-ring has no gate to cross")
	}
}

func TestUnknownDesign(t *testing.T) {
	if _, err := NewWorld("bogus"); err == nil {
		t.Fatal("unknown design accepted")
	}
}

// TestSealedRewritesTakeFreshSalts: every write of a sealed record draws a
// fresh salt, so rewriting one record (same name, same offset) a thousand
// times, as fast as the stack takes it, stores a thousand distinct salts —
// a salt read from the clock repeats within one tick — that vary in all
// twelve bytes, not only in the clock's eight, and each rewrite reads back
// as what was written.
func TestSealedRewritesTakeFreshSalts(t *testing.T) {
	w, err := NewWorld(DualStorage)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := w.Ops().(*sealedFS)
	if err := s.Create("r", 4096); err != nil {
		t.Fatal(err)
	}
	const rewrites = 1000
	seen := make(map[[12]byte]bool, rewrites)
	var first, varied [12]byte
	rec, got := make([]byte, 64), make([]byte, 64)
	for i := 0; i < rewrites; i++ {
		binary.BigEndian.PutUint32(rec, uint32(i))
		if err := s.Write("r", 0, rec); err != nil {
			t.Fatal(err)
		}
		var salt [12]byte
		if _, err := s.fs.Read("r", 4, salt[:]); err != nil { // behind the length header
			t.Fatal(err)
		}
		if seen[salt] {
			t.Fatalf("rewrite %d stored a salt an earlier rewrite stored: % x", i, salt)
		}
		seen[salt] = true
		for j := range salt {
			if i == 0 {
				first[j] = salt[j]
			} else if salt[j] != first[j] {
				varied[j] = 1
			}
		}
		if n, err := s.Read("r", 0, got); err != nil || !bytes.Equal(got[:n], rec) {
			t.Fatalf("rewrite %d read back %x, %v; wrote %x", i, got[:n], err, rec)
		}
	}
	if varied != [12]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1} {
		t.Fatalf("salt bytes that varied over %d rewrites: %v, want all twelve", rewrites, varied)
	}
}
