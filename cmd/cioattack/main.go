// Command cioattack runs the interface-vulnerability suite against every
// transport and prints the resilience matrix (the §3.2 safety claims,
// verified by execution), followed by the recovery-liveness report: the
// chaos-host scenarios showing every induced fault ends in a clean new
// epoch, a permanent fail-dead or a single tenant's eviction — never a
// live-but-corrupt device. The matrix's recovery and tenant-isolation
// cells run those same scenarios, on the safe columns' rigs.
//
// It exits non-zero when any safe-by-construction column
// (attack.SafeTransports) reads COMPROMISED, or when a chaos scenario
// ends live but corrupt.
//
// Usage:
//
//	cioattack           # matrix + recovery report
//	cioattack -v        # every result with detail
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"confio/internal/attack"
	"confio/internal/chaos"
)

func main() {
	verbose := flag.Bool("v", false, "print each result with detail")
	flag.Parse()

	results := attack.RunAll()
	if *verbose {
		for _, r := range results {
			fmt.Println(r)
		}
		fmt.Println()
	}
	fmt.Print(attack.Matrix(results))

	fmt.Println("\nper-transport summary:")
	sum := attack.Summary(results)
	for _, tr := range attack.TransportNames {
		s := sum[tr]
		fmt.Printf("  %-18s blocked=%d degraded=%d compromised=%d n/a=%d\n",
			tr, s[attack.Blocked], s[attack.Degraded], s[attack.Compromised], s[attack.NotApplicable])
	}

	// Recovery liveness: the chaos-host scenarios. Each run reports its
	// outcome plus the meter counters (deaths, reincarnations, stalls).
	fmt.Println("\nrecovery liveness (chaos-host scenarios):")
	var deaths, reincs, stalls uint64
	corrupt := false
	for _, sc := range chaos.Scenarios() {
		r := sc.Run()
		fmt.Printf("  %s\n", r)
		deaths += r.Deaths
		reincs += r.Reincarnations
		stalls += r.Stalls
		if r.Outcome == chaos.Corrupt {
			corrupt = true
		}
	}
	fmt.Printf("  totals: deaths=%d reincarnations=%d stalls-detected=%d\n", deaths, reincs, stalls)

	// Exit nonzero if any safe-by-construction column was ever
	// compromised — CI guard for the paper's core claim.
	for _, r := range results {
		if slices.Contains(attack.SafeTransports, r.Transport) && r.Verdict == attack.Compromised {
			fmt.Fprintf(os.Stderr, "cioattack: SAFE TRANSPORT COMPROMISED: %s\n", r)
			os.Exit(1)
		}
	}
	// Same guard for the recovery invariant: a live-but-corrupt device
	// after a fault means fail-dead recovery is broken.
	if corrupt {
		fmt.Fprintln(os.Stderr, "cioattack: RECOVERY INVARIANT VIOLATED: live-but-corrupt outcome")
		os.Exit(1)
	}
}
