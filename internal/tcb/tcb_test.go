package tcb

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestProfileTotalsAndClasses(t *testing.T) {
	small := Profile{Name: "core", Components: []Component{CompApp, CompCTLS, CompGate}}
	if small.Total() != CompApp.LoC+CompCTLS.LoC+CompGate.LoC {
		t.Fatalf("total = %d", small.Total())
	}
	if small.Class() != ClassS {
		t.Fatalf("class = %s", small.Class())
	}
	big := Profile{Name: "l2", Components: []Component{
		CompApp, CompCTLS, CompEther, CompARP, CompIPv4, CompUDP, CompTCP, CompNetstack, CompSafering,
	}}
	if big.Class() != ClassL && big.Class() != ClassXL {
		t.Fatalf("L2 profile class = %s (%d LoC)", big.Class(), big.Total())
	}
	if !strings.Contains(big.String(), "tcp") {
		t.Fatal("String misses components")
	}
}

func TestClassThresholdOrdering(t *testing.T) {
	mk := func(loc int) Profile {
		return Profile{Components: []Component{{Name: "x", LoC: loc}}}
	}
	order := []Class{mk(500).Class(), mk(1500).Class(), mk(3000).Class(), mk(5000).Class()}
	want := []Class{ClassS, ClassM, ClassL, ClassXL}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("thresholds broken: %v", order)
		}
	}
}

// TestCatalogFresh keeps the static weights within 5 % of the live source
// tree, so the Figure 5 TCB axis and every size claim made in these
// components stay anchored to the code as it evolves: a change that moves
// a package further re-measures its weight.
func TestCatalogFresh(t *testing.T) {
	for _, comp := range []Component{
		CompEther, CompARP, CompIPv4, CompUDP, CompTCP, CompNetstack,
		CompSafering, CompVirtio, CompNetvsc, CompCTLS, CompGate,
		CompTDISP, CompBlkring, CompCryptdisk, CompSFS, CompNIC,
	} {
		t.Run(comp.Name, func(t *testing.T) {
			live, err := Measure(filepath.Join("..", comp.Name))
			if err != nil {
				t.Fatal(err)
			}
			if live == 0 {
				t.Fatal("measured zero lines")
			}
			if d := live - comp.LoC; 20*d > comp.LoC || 20*d < -comp.LoC {
				t.Errorf("catalog weight for %s is %d but source has %d lines (more than 5 %% apart); update the catalog",
					comp.Name, comp.LoC, live)
			}
		})
	}
}

func TestMeasureSkipsTestsAndComments(t *testing.T) {
	n, err := Measure(".")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 400 {
		t.Fatalf("suspicious self-measure: %d", n)
	}
	if _, err := Measure("/nonexistent-dir"); err == nil {
		t.Fatal("missing dir not reported")
	}
	_ = fmt.Sprint(n)
}
