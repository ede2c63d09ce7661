// Middlebox builds a ShieldBox/LightBox-style confidential network
// function: a content scanner running in a TEE, checking tenant traffic
// for a blocked pattern — the workload class the paper's L2 designs are
// motivated by. It runs as a handler on the multi-tenant gateway
// (production shape: multi-queue safe ring, event-idx notification
// suppression, per-tenant ctls keys and compartments), so every
// department talks to the scanner over its own authenticated channel
// and the on-path host sees nothing but ciphertext records.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"sync/atomic"

	"confio/internal/gateway"
)

var blocked = []byte("EXFILTRATE")

func main() {
	var scanned, droppedMsgs atomic.Int64

	// The network function, as a gateway handler: each tenant message
	// arrives decrypted inside the scanner's TEE, already attributed to
	// the tenant that sent it; the verdict goes back over the same
	// per-tenant channel. No bespoke accept/relay loop — routing,
	// per-tenant keys, compartments, metering, flood and stall
	// containment all come from the gateway.
	cfg := gateway.DefaultNodeConfig() // 4 queues, event-idx on
	cfg.Gateway.Handler = func(id gateway.TenantID, msg []byte) ([]byte, error) {
		scanned.Add(int64(len(msg)))
		if bytes.Contains(msg, blocked) {
			droppedMsgs.Add(1)
			return []byte("BLOCKED: policy violation"), nil // policy: drop exfiltration attempts
		}
		return []byte(fmt.Sprintf("forwarded %d bytes", len(msg))), nil
	}
	n, err := gateway.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	n.Net.EnableCapture()

	send := func(id gateway.TenantID, payload []byte) {
		c, err := n.DialTenant(id)
		if err != nil {
			log.Fatalf("tenant %v: %v", id, err)
		}
		defer c.Close()
		if _, err := c.Write(payload); err != nil {
			log.Fatalf("tenant %v: %v", id, err)
		}
		resp := make([]byte, 256)
		nn, err := c.Read(resp)
		if err != nil && err != io.EOF {
			log.Fatalf("tenant %v: %v", id, err)
		}
		fmt.Printf("tenant %d sent %q\n          -> %q\n", id, payload, resp[:nn])
	}

	send(1, []byte("quarterly report: all numbers up"))
	send(2, append([]byte("please "), append(blocked, []byte(" the customer database")...)...))
	send(3, []byte("lunch menu attached"))

	fmt.Printf("\nmiddlebox scanned %d bytes, blocked %d message(s)\n",
		scanned.Load(), droppedMsgs.Load())

	// Per-tenant attribution comes with the gateway for free.
	fmt.Println("\nper-tenant meters:")
	for _, id := range n.Tb.IDs() {
		fmt.Printf("  tenant %d: %s\n", id, n.Tb.Tenant(id))
	}

	// What did the on-path observer learn? Frame counts and sizes only:
	// hellos aside, every byte on the wire is a ctls record under that
	// tenant's key.
	sizes := map[int]int{}
	for _, rec := range n.Net.Capture() {
		sizes[rec.Len]++
	}
	fmt.Printf("\non-path observer: %d frames, %d distinct sizes — ciphertext records under\n",
		len(n.Net.Capture()), len(sizes))
	fmt.Println("per-tenant keys; no tenant (and no host) can read another tenant's stream.")
	fmt.Println("the tunnel design (go test -bench 'Fig5/echo/tunnel') additionally hides")
	fmt.Println("the traffic shape behind constant-size frames.")
}
