package compartment

import (
	"bytes"
	"errors"
	"testing"

	"confio/internal/platform"
)

func setup() (*Domain, *Domain, *Gate, *platform.Meter) {
	m := &platform.Meter{}
	app := NewDomain("app", m)
	io := NewDomain("io", m)
	return app, io, NewGate(app, io, m), m
}

func TestOwnershipEnforced(t *testing.T) {
	app, io, _, _ := setup()
	b := app.Alloc(64)
	if _, err := b.Access(app); err != nil {
		t.Fatalf("owner access: %v", err)
	}
	if _, err := b.Access(io); !errors.Is(err, ErrDomainAccess) {
		t.Fatalf("foreign access: %v", err)
	}
}

func TestUseAfterFree(t *testing.T) {
	app, _, _, _ := setup()
	b := app.Alloc(64)
	b.Free()
	b.Free() // idempotent
	if _, err := b.Access(app); !errors.Is(err, ErrPolicy) {
		t.Fatalf("use after free: %v", err)
	}
	if app.AllocatedBytes() != 0 {
		t.Fatalf("accounting: %d", app.AllocatedBytes())
	}
}

func TestAllocationAccounting(t *testing.T) {
	app, _, _, _ := setup()
	b1 := app.Alloc(100)
	b2 := app.Alloc(50)
	if app.AllocatedBytes() != 150 {
		t.Fatalf("allocated = %d", app.AllocatedBytes())
	}
	b1.Free()
	if app.AllocatedBytes() != 50 {
		t.Fatalf("after free = %d", app.AllocatedBytes())
	}
	_ = b2
	if app.Name() != "app" || b2.Owner() != app || b2.Len() != 50 {
		t.Fatal("metadata accessors")
	}
}

func TestGateCallCountsCrossings(t *testing.T) {
	_, _, g, m := setup()
	ran := false
	if err := g.Call(func(io *Domain) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn not run")
	}
	if g.Crossings() != 2 {
		t.Fatalf("crossings = %d", g.Crossings())
	}
	if m.Snapshot().GateCrossings != 2 {
		t.Fatalf("meter = %d", m.Snapshot().GateCrossings)
	}
}

func TestTrustedAllocatesTxFlow(t *testing.T) {
	_, io, g, _ := setup()
	b := g.AllocTx(128)
	if b.Owner() != io {
		t.Fatal("AllocTx must allocate in the I/O domain")
	}
	payload := []byte("app data into io arena")
	if err := g.FillTx(b, payload); err != nil {
		t.Fatal(err)
	}
	var sent []byte
	err := g.SubmitTx(b, func(p []byte) error {
		sent = append([]byte{}, p[:len(payload)]...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, payload) {
		t.Fatal("payload lost through gate")
	}
}

func TestSubmitTxRejectsAppPointers(t *testing.T) {
	app, _, g, _ := setup()
	evil := app.Alloc(64) // app-owned pointer handed to the I/O stack
	err := g.SubmitTx(evil, func([]byte) error { return nil })
	if !errors.Is(err, ErrPolicy) {
		t.Fatalf("app pointer accepted by I/O stack: %v", err)
	}
}

func TestFillTxValidation(t *testing.T) {
	app, _, g, _ := setup()
	b := g.AllocTx(8)
	if err := g.FillTx(b, make([]byte, 9)); !errors.Is(err, ErrPolicy) {
		t.Fatalf("overflow: %v", err)
	}
	appBuf := app.Alloc(8)
	if err := g.FillTx(appBuf, []byte("x")); !errors.Is(err, ErrPolicy) {
		t.Fatalf("app-owned tx buffer: %v", err)
	}
	b.Free()
	if err := g.FillTx(b, []byte("x")); !errors.Is(err, ErrPolicy) {
		t.Fatalf("freed tx buffer: %v", err)
	}
}

// TestReuseTxCostsWhatAllocTxCosts: keeping a transmit buffer across
// sends saves the allocation, not the round trip — two crossings, like
// AllocTx — and is refused for anything but a live I/O-owned buffer.
func TestReuseTxCostsWhatAllocTxCosts(t *testing.T) {
	app, io, g, m := setup()
	b := g.AllocTx(64)
	if err := g.ReuseTx(b); err != nil {
		t.Fatal(err)
	}
	if g.Crossings() != 4 || m.Snapshot().GateCrossings != 4 {
		t.Fatalf("AllocTx + ReuseTx = %d crossings (meter %d), want 4", g.Crossings(), m.Snapshot().GateCrossings)
	}
	if io.AllocatedBytes() != 64 {
		t.Fatalf("ReuseTx changed the I/O domain's accounting: %d bytes", io.AllocatedBytes())
	}
	if err := g.ReuseTx(app.Alloc(8)); !errors.Is(err, ErrPolicy) {
		t.Fatalf("app-owned tx buffer: %v", err)
	}
	b.Free()
	if err := g.ReuseTx(b); !errors.Is(err, ErrPolicy) {
		t.Fatalf("freed tx buffer: %v", err)
	}
	if g.Crossings() != 4 {
		t.Fatalf("refused reuse still crossed: %d", g.Crossings())
	}
}

func TestRxRequiresAppBuffer(t *testing.T) {
	app, io, g, m := setup()
	dst := app.Alloc(64)
	n, err := g.Rx(dst, func(into []byte) (int, error) {
		return copy(into, []byte("from the io stack")), nil
	})
	if err != nil || n != 17 {
		t.Fatalf("rx: %d %v", n, err)
	}
	data, _ := dst.Access(app)
	if string(data[:n]) != "from the io stack" {
		t.Fatalf("rx data %q", data[:n])
	}
	if m.Snapshot().BytesCopied == 0 {
		t.Fatal("rx copy not metered")
	}

	ioBuf := io.Alloc(64)
	if _, err := g.Rx(ioBuf, func([]byte) (int, error) { return 0, nil }); !errors.Is(err, ErrPolicy) {
		t.Fatalf("io-owned rx buffer: %v", err)
	}
	dst.Free()
	if _, err := g.Rx(dst, func([]byte) (int, error) { return 0, nil }); !errors.Is(err, ErrPolicy) {
		t.Fatalf("freed rx buffer: %v", err)
	}
}

func TestGateCostModelAsymmetry(t *testing.T) {
	// The whole premise: a gate crossing costs far less than a TEE
	// boundary crossing under the default calibration.
	p := platform.DefaultCostParams()
	gateRTT := 2 * p.GateCrossNs
	teeRTT := 2 * p.TEECrossNs
	if gateRTT*10 > teeRTT {
		t.Fatalf("gate %v not ≪ TEE %v", gateRTT, teeRTT)
	}
}
