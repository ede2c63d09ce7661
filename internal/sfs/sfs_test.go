package sfs

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"confio/internal/blockdev"
	"confio/internal/cryptdisk"
)

func newFS(t *testing.T, sectors uint64) (*FS, blockdev.Disk) {
	t.Helper()
	d := blockdev.NewMemDisk(sectors)
	if err := Mkfs(d, 64); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	return fs, d
}

func TestMkfsMountRoundTrip(t *testing.T) {
	fs, d := newFS(t, 64)
	if err := fs.Create("hello.txt", 8192); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("hello.txt", 0, []byte("hello, storage world")); err != nil {
		t.Fatal(err)
	}
	// Remount and verify persistence.
	fs2, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := fs2.Read("hello.txt", 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello, storage world" {
		t.Fatalf("persisted read = %q", buf[:n])
	}
}

func TestMountUnformatted(t *testing.T) {
	d := blockdev.NewMemDisk(8)
	if _, err := Mount(d); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("mounted garbage: %v", err)
	}
}

func TestMkfsTooSmall(t *testing.T) {
	d := blockdev.NewMemDisk(1)
	if err := Mkfs(d, 64); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("mkfs on tiny disk: %v", err)
	}
}

func TestCrossSectorWriteRead(t *testing.T) {
	fs, _ := newFS(t, 128)
	if err := fs.Create("big", 5*blockdev.SectorSize); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*blockdev.SectorSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Unaligned offset spanning sectors.
	if err := fs.Write("big", 1000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := fs.Read("big", 1000, got)
	if err != nil || n != len(data) {
		t.Fatalf("read %d: %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-sector data corrupted")
	}
	if sz, _ := fs.Size("big"); sz != 1000+int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs, _ := newFS(t, 64)
	if err := fs.Create("small", 4096); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("small", 4000, make([]byte, 200)); !errors.Is(err, ErrBounds) {
		t.Fatalf("overflow write: %v", err)
	}
	if _, err := fs.Read("small", -1, make([]byte, 1)); !errors.Is(err, ErrBounds) {
		t.Fatalf("negative read: %v", err)
	}
}

func TestReadPastEOFIsShort(t *testing.T) {
	fs, _ := newFS(t, 64)
	fs.Create("f", 4096)
	fs.Write("f", 0, []byte("abc"))
	buf := make([]byte, 10)
	n, err := fs.Read("f", 0, buf)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	n, err = fs.Read("f", 3, buf)
	if err != nil || n != 0 {
		t.Fatalf("at EOF: n=%d err=%v", n, err)
	}
	if _, err := fs.Read("f", 4, buf); !errors.Is(err, ErrBounds) {
		t.Fatalf("past EOF: %v", err)
	}
}

func TestNamesAndDuplicates(t *testing.T) {
	fs, _ := newFS(t, 64)
	if err := fs.Create("", 1); !errors.Is(err, ErrBadName) {
		t.Fatal("empty name")
	}
	if err := fs.Create(strings.Repeat("x", 100), 1); !errors.Is(err, ErrBadName) {
		t.Fatal("long name")
	}
	if err := fs.Create("dup", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("dup", 1); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate create")
	}
	if err := fs.Write("ghost", 0, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatal("write to missing file")
	}
	if err := fs.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete missing file")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	fs, _ := newFS(t, 40) // ~37 data sectors
	if err := fs.Create("a", 30*blockdev.SectorSize); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("b", 30*blockdev.SectorSize); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("space not exhausted: %v", err)
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("b", 30*blockdev.SectorSize); err != nil {
		t.Fatalf("space not reclaimed: %v", err)
	}
}

func TestList(t *testing.T) {
	fs, _ := newFS(t, 64)
	fs.Create("zeta", 4096)
	fs.Create("alpha", 4096)
	fs.Write("alpha", 0, []byte("xyz"))
	l := fs.List()
	if len(l) != 2 || l[0].Name != "alpha" || l[1].Name != "zeta" {
		t.Fatalf("list = %+v", l)
	}
	if l[0].Size != 3 || l[0].Capacity != 4096 {
		t.Fatalf("alpha info = %+v", l[0])
	}
}

func TestOverCryptdisk(t *testing.T) {
	// The confidential filesystem: sfs -> cryptdisk -> untrusted disk.
	phys := blockdev.NewMemDisk(64)
	snoop := &blockdev.SnoopDisk{Disk: phys}
	cd, _, err := cryptdisk.Format(snoop, 64, []byte("fs-volume-key"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(cd, 16); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(cd)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("CONFIDENTIAL-LEDGER-ROW")
	if err := fs.Create("ledger.db", 8192); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("ledger.db", 0, secret); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(secret))
	if _, err := fs.Read("ledger.db", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, secret) {
		t.Fatal("round trip over cryptdisk corrupted")
	}
	// Neither file names nor contents reach the platter in the clear.
	if bytes.Contains(snoop.Seen(), secret) || bytes.Contains(snoop.Seen(), []byte("ledger.db")) {
		t.Fatal("plaintext on the platter")
	}
}

// Property: random file operations against a shadow model.
func TestRandomOpsProperty(t *testing.T) {
	fs, _ := newFS(t, 256)
	rng := rand.New(rand.NewSource(11))
	shadow := map[string][]byte{} // name -> contents (up to size)
	names := []string{"a", "b", "c", "d"}
	const fileCap = 4 * blockdev.SectorSize

	for i := 0; i < 400; i++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0: // create
			err := fs.Create(name, fileCap)
			if _, exists := shadow[name]; exists {
				if !errors.Is(err, ErrExists) {
					t.Fatalf("it %d: create existing: %v", i, err)
				}
			} else if err != nil {
				t.Fatalf("it %d: create: %v", i, err)
			} else {
				shadow[name] = []byte{}
			}
		case 1: // write
			if _, ok := shadow[name]; !ok {
				continue
			}
			off := rng.Intn(fileCap - 600)
			data := make([]byte, 1+rng.Intn(512))
			rng.Read(data)
			if err := fs.Write(name, int64(off), data); err != nil {
				t.Fatalf("it %d: write: %v", i, err)
			}
			cur := shadow[name]
			if need := off + len(data); need > len(cur) {
				grown := make([]byte, need)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			shadow[name] = cur
		case 2: // read & compare
			want, ok := shadow[name]
			if !ok || len(want) == 0 {
				continue
			}
			off := rng.Intn(len(want))
			buf := make([]byte, 1+rng.Intn(512))
			n, err := fs.Read(name, int64(off), buf)
			if err != nil {
				t.Fatalf("it %d: read: %v", i, err)
			}
			if !bytes.Equal(buf[:n], want[off:off+n]) {
				t.Fatalf("it %d: %s mismatch at %d", i, name, off)
			}
		case 3: // delete
			err := fs.Delete(name)
			if _, ok := shadow[name]; ok {
				if err != nil {
					t.Fatalf("it %d: delete: %v", i, err)
				}
				delete(shadow, name)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("it %d: delete missing: %v", i, err)
			}
		}
	}
}

// TestReadWriteAllocNothing: a read or a write inside a file's size
// allocates nothing — sector-aligned (straight through to the disk), or
// unaligned and crossing a sector boundary (through the mount's one
// bounce sector) — raw and over cryptdisk. (A MemDisk allocates a sector
// on its first write only, and Create has written the whole file.)
func TestReadWriteAllocNothing(t *testing.T) {
	const sectors = 64
	cd, _, err := cryptdisk.Format(blockdev.NewMemDisk(sectors), sectors, []byte("alloc-nothing"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]blockdev.Disk{"raw": blockdev.NewMemDisk(sectors), "cryptdisk": cd} {
		if err := Mkfs(d, 16); err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(d)
		if err != nil {
			t.Fatal(err)
		}
		const size = 16 * blockdev.SectorSize
		if err := fs.Create("f", size); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("f", 0, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		aligned, odd := make([]byte, blockdev.SectorSize), make([]byte, 3000)
		i := 0
		ops := map[string]func() error{
			"aligned write":   func() error { return fs.Write("f", int64(i%16)*blockdev.SectorSize, aligned) },
			"aligned read":    func() error { _, err := fs.Read("f", int64(i%16)*blockdev.SectorSize, aligned); return err },
			"unaligned write": func() error { return fs.Write("f", int64(i%13)*blockdev.SectorSize+2500, odd) },
			"unaligned read":  func() error { _, err := fs.Read("f", int64(i%13)*blockdev.SectorSize+2500, odd); return err },
		}
		for op, f := range ops {
			got := testing.AllocsPerRun(100, func() {
				i++
				if err := f(); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%s, %s: %.0f allocations per op, want 0", name, op, got)
			}
		}
	}
}
