package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload defines each
// of them, so they are the figures BENCHMARK.json bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"sim_local_mb", "MB"},
	{"sim_cold_pct", "%"},
}

// reportOnly are end-to-end figures printed in the report of the workloads
// they apply to, but not in the result line: failed_pct reads 0 on correct
// code, and the others do not exist on every workload.
var reportOnly = []metricDef{
	{"failed_pct", "%"},
	{"rtt_p50_ms", "ms"},
	{"rtt_p90_ms", "ms"},
	{"sim_p95_s", "s"},
	{"sim_amplification", "x"},
}

// cpuLayers are the packages (or package groups) a traced run's CPU profile
// is folded into; see layerOf.
var cpuLayers = []string{
	"pagemem", "mglru", "core", "faas", "rmem", "memnode", "sharedmem",
	"simtime", "telemetry", "policy", "cluster", "trace", "workload",
	"gateway", "json", "http", "runtime", "bench", "other",
}

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	return append(defs,
		metricDef{"core.runtime_offloads", "count"},
		metricDef{"core.init_offloads", "count"},
		metricDef{"core.rollbacks", "count"},
		metricDef{"core.semiwarm_entries", "count"},
		metricDef{"faas.fault_pages", "count"},
		metricDef{"faas.runtime_fault_pages", "count"},
		metricDef{"faas.containers_created", "count"},
		metricDef{"faas.write_break_pages", "count"},
		metricDef{"faas.construct_ms", "ms"},
		metricDef{"rmem.offloaded_mb", "MB"},
		metricDef{"rmem.recalled_mb", "MB"},
		metricDef{"rmem.recall_per_offload", "ratio"},
		metricDef{"memnode.merged_pages", "count"},
		metricDef{"memnode.unmerge_breaks", "count"},
		metricDef{"memnode.unmerged_pages", "count"},
		metricDef{"memnode.cache_hit_pct", "%"},
		metricDef{"memnode.cache_evictions", "count"},
		metricDef{"memnode.compressed_pages", "count"},
		metricDef{"memnode.spilled_pages", "count"},
		metricDef{"memnode.check_ms", "ms"},
		metricDef{"cluster.evicted", "count"},
		metricDef{"cluster.rescheduled", "count"},
		metricDef{"cluster.construct_ms", "ms"},
		metricDef{"trace.generate_ms", "ms"},
		metricDef{"trace.keepalive_ms", "ms"},
		metricDef{"simtime.events", "count"},
		metricDef{"simtime.events_per_req", "ratio"},
		metricDef{"simtime.run_s", "s"},
		metricDef{"gateway.server_ms_p50", "ms"},
		metricDef{"gateway.transport_ms_p50", "ms"},
		metricDef{"gateway.bad_request", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// digest hashes the deterministic model statistics of a run (every sim_*
// value and the per-layer counts of the reference cycle). Two builds that
// simulate identically print the same digest for the same seed.
func digest(model map[string]float64) string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.17g\n", k, model[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
