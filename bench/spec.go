package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// reference median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one home of bounds and
// directions: -diff reads them from the file, never from this package.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return &s, nil
}

// endToEndSpec and perLayerSpec fix the names, units and print order of
// what this program emits; a test holds BENCHMARK.json to them. Every
// workload reports every end-to-end metric, so each is defined per op,
// where an op is one echo, one 32 KiB chunk, one ring frame or one 4 KiB
// file read or write.
var endToEndSpec = []metricSpec{
	{Name: "op_lo_us", Unit: "us", Better: "lower"},
	{Name: "op_hi_us", Unit: "us", Better: "lower"},
	{Name: "model_ns_per_op", Unit: "model_ns", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

var perLayerSpec = []metricSpec{
	// The workload's own reading of its throughput and latency.
	{Name: "workload.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "workload.op_p90_us", Unit: "us", Better: "lower"},
	{Name: "workload.op_p99_whole_us", Unit: "us", Better: "lower"},
	{Name: "workload.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "workload.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.round_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "sfs.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "sfs.write_p50_us", Unit: "us", Better: "lower"},

	// Process, every workload.
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.idle_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},

	// platform.Costs delta per op, every workload, exact.
	{Name: "platform.tee_crossings_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.gate_crossings_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.bytes_copied_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.checks_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.notifications_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.notifs_suppressed_per_op", Unit: "count", Better: "higher"},
	{Name: "platform.index_publishes_per_op", Unit: "count", Better: "lower"},
	{Name: "platform.crypto_bytes_per_op", Unit: "count", Better: "lower"},

	// Net trace, echo shape: per round trip, both legs summed, p50.
	{Name: "ctls.seal_us", Unit: "us", Better: "lower"},
	{Name: "ctls.open_us", Unit: "us", Better: "lower"},
	{Name: "netstack.tx_us", Unit: "us", Better: "lower"},
	{Name: "safering.send_us", Unit: "us", Better: "lower"},
	{Name: "safering.pop_us", Unit: "us", Better: "lower"},
	{Name: "safering.push_us", Unit: "us", Better: "lower"},
	{Name: "safering.recv_us", Unit: "us", Better: "lower"},
	{Name: "nic.tx_wake_us", Unit: "us", Better: "lower"},
	{Name: "nic.tx_wake_p99_us", Unit: "us", Better: "lower"},
	{Name: "nic.fwd_us", Unit: "us", Better: "lower"},
	{Name: "nic.rx_wake_us", Unit: "us", Better: "lower"},
	{Name: "nic.rx_wake_p99_us", Unit: "us", Better: "lower"},
	{Name: "netstack.rx_wake_us", Unit: "us", Better: "lower"},
	{Name: "netstack.rx_wake_p99_us", Unit: "us", Better: "lower"},
	{Name: "netstack.rx_us", Unit: "us", Better: "lower"},
	{Name: "workload.turn_us", Unit: "us", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// Net trace, bulk shape: pipelined, so busy shares and counts.
	{Name: "ctls.busy_pct", Unit: "%", Better: "lower"},
	{Name: "netstack.tx_busy_pct", Unit: "%", Better: "lower"},
	{Name: "safering.guest_busy_pct", Unit: "%", Better: "lower"},
	{Name: "safering.host_busy_pct", Unit: "%", Better: "lower"},
	{Name: "safering.frames_per_sendbatch", Unit: "count", Better: "higher"},
	{Name: "safering.frames_per_popbatch", Unit: "count", Better: "higher"},
	{Name: "safering.send_full_per_MB", Unit: "count", Better: "lower"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower"},
	{Name: "tcp.fast_retransmits", Unit: "count", Better: "lower"},
	{Name: "tcp.segs_out_per_MB", Unit: "count", Better: "lower"},
	{Name: "netstack.send_drops", Unit: "count", Better: "lower"},
	{Name: "simnet.frames_per_MB", Unit: "count", Better: "lower"},

	// Gateway, gw-echo only.
	{Name: "gateway.internal_p99_us", Unit: "us", Better: "lower"},
	{Name: "gateway.p99_spread", Unit: "ratio", Better: "lower"},
	{Name: "gateway.tenant_drops", Unit: "count", Better: "lower"},
	{Name: "gateway.tenant_evictions", Unit: "count", Better: "lower"},
	{Name: "gateway.over_echo_us", Unit: "us", Better: "lower"},

	// Storage trace, file-rw shape, p50 per op.
	{Name: "sfs.read_self_us", Unit: "us", Better: "lower"},
	{Name: "sfs.write_self_us", Unit: "us", Better: "lower"},
	{Name: "cryptdisk.read_self_us", Unit: "us", Better: "lower"},
	{Name: "cryptdisk.write_self_us", Unit: "us", Better: "lower"},
	{Name: "blkring.read_wait_us", Unit: "us", Better: "lower"},
	{Name: "blkring.write_wait_us", Unit: "us", Better: "lower"},
	{Name: "blockdev.read_service_us", Unit: "us", Better: "lower"},
	{Name: "blockdev.write_service_us", Unit: "us", Better: "lower"},
	{Name: "blkring.sectors_per_submit", Unit: "count", Better: "higher"},
	{Name: "cryptdisk.sectors_per_op", Unit: "count", Better: "lower"},

	// Micro-drives: fixed-count loops straight into a layer.
	{Name: "safering.batch16_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "safering.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "ctls.record256_ns", Unit: "ns", Better: "lower"},
	{Name: "ctls.record16k_ns", Unit: "ns", Better: "lower"},
	{Name: "ctls.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "compartment.gate_call_ns", Unit: "ns", Better: "lower"},
	{Name: "cryptdisk.read_sector_ns", Unit: "ns", Better: "lower"},
	{Name: "cryptdisk.write_sector_ns", Unit: "ns", Better: "lower"},
	{Name: "cryptdisk.allocs_per_sector", Unit: "count", Better: "lower"},
	{Name: "blkring.sector_b1_ns", Unit: "ns", Better: "lower"},
	{Name: "blkring.sector_b16_ns", Unit: "ns", Better: "lower"},
	{Name: "blkring.allocs_per_span_b16", Unit: "count", Better: "lower"},
	{Name: "sfs.read4k_ns", Unit: "ns", Better: "lower"},
	{Name: "sfs.write4k_ns", Unit: "ns", Better: "lower"},
}
