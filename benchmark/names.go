package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The metric names are normative: BENCHMARK.json lists the same sets
// and the smoke test holds the two together.

// endToEndNames are the metrics a caller of the library sees.
func endToEndNames() []string {
	names := []string{"setup_s"}
	for _, r := range runtimes {
		names = append(names, "tp_s."+r.name)
	}
	return names
}

// probeNames are the suite-level layer probes.
var probeNames = []string{
	"sched.next_ns.css", "sched.next_ns.tfss", "sched.next_ns.dtss", "sched.next_ns.dcss", "sched.next_locked_ns",
	"ledger.build_us", "ledger.claim_ns", "ledger.claim_contended_ns",
	"steal.pushpop_ns", "steal.steal_ns",
	"exec.refill_ns", "exec.refill_ledger_ns",
	"wire.call_mem_ns", "wire.call_tcp_ns", "wire.fetchadd_tcp_ns", "wire.bytes_per_call", "wire.allocs_per_call",
	"netrpc.call_tcp_ns", "mp.roundtrip_ns", "service.fleet_start_ms",
	"telemetry.publish_ns", "telemetry.publish_contended_ns", "telemetry.hist_record_ns",
	"mandelbrot.column_us",
}

// perRuntimeNames are reported once per runtime path, suffixed with it.
var perRuntimeNames = []string{
	"run_fixed_ms", "telemetry_cost_frac", "eff", "nonbody_us_per_chunk", "imbalance",
	"comm_frac", "wait_frac", "chunks", "allocs_per_chunk", "budget_explained_frac",
}

// perLayerNames is every layer metric a traced run reports.
func perLayerNames() []string {
	names := append([]string(nil), probeNames...)
	names = append(names,
		"serial_s", "telemetry.dropped_events",
		"ledger.fetchadds_per_chunk.rpc_ledger",
		"steal.steals_per_chunk.local_steal", "steal.refills_per_chunk.local_steal",
	)
	for _, r := range []string{"rpc_binary", "rpc_ledger", "hier_rpc"} {
		names = append(names, "wire.frames_per_chunk."+r, "wire.bytes_per_chunk."+r)
	}
	for _, m := range perRuntimeNames {
		for _, r := range runtimes {
			names = append(names, m+"."+r.name)
		}
	}
	sort.Strings(names)
	return names
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when
// run from inside benchmark/, its parent.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// bounds maps each end-to-end metric to the share of the base by which
// it may worsen.
func (s *spec) bounds() map[string]float64 {
	m := make(map[string]float64, len(s.EndToEnd))
	for _, e := range s.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}
