package main

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/cluster"
	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/metrics"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// keepAlive is the paper's container keep-alive timeout.
const keepAlive = 10 * time.Minute

// Input sizes of the batch workloads.
const (
	// nodePasses distinct passes (11 cells each) form node-faasmem's
	// reference cycle; nodeWindow is each cell's trace window.
	nodePasses = 64
	nodeWindow = 20 * time.Minute

	// rackReplays replays form rack-azure's reference cycle. Each chains
	// rackSegments 424-function traces of rackWindow each, so the rack's
	// keep-alive population at any time mixes several traces and no single
	// trace's hottest functions decide the peak memory of a run.
	rackReplays  = 8
	rackSegments = 4
	rackWindow   = 150 * time.Second
	rackNodes    = 3
	rackLimitMB  = 8000
	rackTenants  = 3
)

// modelStats accumulates the deterministic statistics of a reference cycle.
type modelStats struct {
	latency                   metrics.Sampler // every completed request, seconds
	requests, cold            int
	localMB                   []float64 // time-averaged node-local MB per run
	amplification             []float64
	core                      core.Stats
	faultPages, runtimeFault  int64
	writeBreaks               int64
	created, evicted, resched int
	offloaded, recalled       int64 // bytes
	events                    uint64
	mem                       memnode.Stats
	memnodeRuns               int
}

func (m *modelStats) addFunction(st *faas.FunctionStats) {
	addSamples(&m.latency, &st.Latency)
	m.requests += st.Requests
	m.cold += st.ColdStarts
	m.faultPages += st.FaultPages
	m.runtimeFault += st.RuntimeFaultPages
	m.writeBreaks += st.WriteBreakPages
}

func (m *modelStats) addCore(st *core.Stats) {
	m.core.RuntimeOffloads += st.RuntimeOffloads
	m.core.InitOffloads += st.InitOffloads
	m.core.Rollbacks += st.Rollbacks
	m.core.SemiWarmEntries += st.SemiWarmEntries
}

func (m *modelStats) addPool(p *rmem.Pool) {
	m.offloaded += p.Meter(rmem.Offload).Total()
	m.recalled += p.Meter(rmem.Recall).Total()
}

func (m *modelStats) addMemnode(st memnode.Stats) {
	amp := 1.0
	if st.PeakResidentBytes > 0 {
		amp = float64(st.PeakLogicalBytes) / float64(st.PeakResidentBytes)
	}
	m.merge(&modelStats{memnodeRuns: 1, mem: st, amplification: []float64{amp}})
}

// merge adds o's statistics to m (latency samples excepted).
func (m *modelStats) merge(o *modelStats) {
	m.requests += o.requests
	m.cold += o.cold
	m.localMB = append(m.localMB, o.localMB...)
	m.amplification = append(m.amplification, o.amplification...)
	m.addCore(&o.core)
	m.faultPages += o.faultPages
	m.runtimeFault += o.runtimeFault
	m.writeBreaks += o.writeBreaks
	m.created += o.created
	m.evicted += o.evicted
	m.resched += o.resched
	m.offloaded += o.offloaded
	m.recalled += o.recalled
	m.events += o.events
	m.memnodeRuns += o.memnodeRuns
	m.mem.MergedPages += o.mem.MergedPages
	m.mem.UnmergeBreaks += o.mem.UnmergeBreaks
	m.mem.UnmergedPages += o.mem.UnmergedPages
	m.mem.CacheHitPages += o.mem.CacheHitPages
	m.mem.CacheMissPages += o.mem.CacheMissPages
	m.mem.CacheEvictions += o.mem.CacheEvictions
	m.mem.CompressedPages += o.mem.CompressedPages
	m.mem.SpilledPages += o.mem.SpilledPages
}

// addSamples copies every observation of src into dst. Sampler exposes its
// observations only as a CDF of distinct values, so the count of each value
// is recovered from the cumulative fractions.
func addSamples(dst, src *metrics.Sampler) {
	n := src.Count()
	prev := 0
	for _, pt := range src.CDF() {
		upto := int(pt.Fraction*float64(n) + 0.5)
		for ; prev < upto; prev++ {
			dst.Add(pt.Value)
		}
	}
}

// figures renders the statistics as the sim_* values and per-layer counts.
func (m *modelStats) figures() map[string]float64 {
	out := map[string]float64{
		"sim_local_mb":             mean(m.localMB),
		"sim_cold_pct":             100 * float64(m.cold) / float64(max(m.requests, 1)),
		"core.runtime_offloads":    float64(m.core.RuntimeOffloads),
		"core.init_offloads":       float64(m.core.InitOffloads),
		"core.rollbacks":           float64(m.core.Rollbacks),
		"core.semiwarm_entries":    float64(m.core.SemiWarmEntries),
		"faas.fault_pages":         float64(m.faultPages),
		"faas.runtime_fault_pages": float64(m.runtimeFault),
		"faas.containers_created":  float64(m.created),
		"faas.write_break_pages":   float64(m.writeBreaks),
		"rmem.offloaded_mb":        float64(m.offloaded) / 1e6,
		"rmem.recalled_mb":         float64(m.recalled) / 1e6,
		"rmem.recall_per_offload":  float64(m.recalled) / float64(max(m.offloaded, 1)),
		"cluster.evicted":          float64(m.evicted),
		"cluster.rescheduled":      float64(m.resched),
		"simtime.events":           float64(m.events),
		"simtime.events_per_req":   float64(m.events) / float64(max(m.requests, 1)),
	}
	if m.latency.Count() > 0 {
		out["sim_p95_s"] = m.latency.P95()
	}
	if m.memnodeRuns > 0 {
		out["sim_amplification"] = mean(m.amplification)
		out["memnode.merged_pages"] = float64(m.mem.MergedPages)
		out["memnode.unmerge_breaks"] = float64(m.mem.UnmergeBreaks)
		out["memnode.unmerged_pages"] = float64(m.mem.UnmergedPages)
		out["memnode.cache_evictions"] = float64(m.mem.CacheEvictions)
		out["memnode.compressed_pages"] = float64(m.mem.CompressedPages)
		out["memnode.spilled_pages"] = float64(m.mem.SpilledPages)
		if lookups := m.mem.CacheHitPages + m.mem.CacheMissPages; lookups > 0 {
			out["memnode.cache_hit_pct"] = 100 * float64(m.mem.CacheHitPages) / float64(lookups)
		}
	}
	return out
}

// cycleLoop runs step over a reference cycle of n operations, repeating the
// cycle until at least seconds of host time have passed; with fullCycle it
// also runs until the reference cycle is complete. Operations of the first
// (reference) cycle get a non-nil into for their model statistics.
func cycleLoop(seconds float64, n int, fullCycle bool, step func(i int, into *modelStats) (reqs int, err error)) *phase {
	ph := &phase{}
	var m modelStats
	start := time.Now()
	for i := 0; i == 0 || (fullCycle && i < n) || time.Since(start).Seconds() < seconds; i++ {
		var into *modelStats
		if i < n {
			into = &m
		}
		t0 := time.Now()
		reqs, err := step(i%n, into)
		if i < n {
			ph.refNanos = append(ph.refNanos, time.Since(t0).Nanoseconds())
		}
		ph.attempted++
		ph.simReqs += int64(reqs)
		if err != nil {
			ph.failed++
		}
	}
	ph.elapsed = time.Since(start)
	ph.model = m.figures()
	return ph
}

// ---------------------------------------------------------------- node-faasmem

// nodeFaaSMem runs one faas.Platform per cell under the FaaSMem policy at
// paper defaults (semi-warm timing seeded from the offline keep-alive
// analysis); a pass runs all 11 profiles on bursty high-load timelines.
type nodeFaaSMem struct {
	cells []nodeCell // nodePasses × 11, pass-major
}

type nodeCell struct {
	prof   *workload.Profile
	seed   int64
	inv    []simtime.Time
	reused []time.Duration // keep-alive reuse intervals, for SeedReuseIntervals
}

func (w *nodeFaaSMem) prepare(seed int64, tr *tracer) error {
	w.generate(seed, nodePasses, tr)
	// Warm-up: one untimed pass over inputs of a fixed seed, so the
	// warm-up costs the same whatever the seed.
	warm := &nodeFaaSMem{}
	warm.generate(0, 1, tr)
	for i := range warm.cells {
		if _, err := warm.runCell(i, nil, tr); err != nil {
			return err
		}
	}
	return nil
}

// generate builds the cells of the given number of passes from the seed,
// with each timeline's keep-alive analysis.
func (w *nodeFaaSMem) generate(seed int64, passes int, tr *tracer) {
	profs := workload.Profiles()
	w.cells = nil
	for p := 0; p < passes; p++ {
		for i, prof := range profs {
			cs := seed*1_000_003 + int64(p*len(profs)+i)
			id := tr.begin(spanGenerate, 0, -1)
			inv := experiments.HighLoadInvocations(nodeWindow, cs)
			tr.end(id)
			id = tr.begin(spanKeepAlive, 0, -1)
			ka := trace.SimulateKeepAlive(inv, prof.ExecTime, keepAlive)
			tr.end(id)
			w.cells = append(w.cells, nodeCell{prof: prof, seed: cs, inv: inv, reused: ka.ReusedIntervals})
		}
	}
}

func (w *nodeFaaSMem) measure(seconds float64, fullCycle bool, tr *tracer) (*phase, error) {
	return cycleLoop(seconds, len(w.cells), fullCycle, func(i int, into *modelStats) (int, error) {
		return w.runCell(i, into, tr)
	}), nil
}

// runCell simulates one cell and checks it; into, when non-nil, receives the
// cell's model statistics.
func (w *nodeFaaSMem) runCell(i int, into *modelStats, tr *tracer) (int, error) {
	c := &w.cells[i]
	op := int64(i)
	root := tr.begin(spanOp, 0, op)
	defer tr.end(root)

	fm := core.New(core.Config{})
	e := simtime.NewEngine()
	id := tr.begin(spanFaasNew, root, op)
	p := faas.New(e, faas.Config{KeepAliveTimeout: keepAlive, Seed: c.seed}, fm)
	tr.end(id)
	f := p.Register(c.prof.Name, c.prof)
	p.ScheduleInvocations(c.prof.Name, c.inv)
	fm.SeedReuseIntervals(c.prof.Name, c.reused)
	id = tr.begin(spanRunUntil, root, op)
	e.RunUntil(nodeWindow + keepAlive)
	tr.end(id)

	st := f.Stats()
	if into != nil {
		into.addFunction(st)
		into.addCore(fm.Stats())
		into.addPool(p.Pool())
		into.localMB = append(into.localMB, p.NodeLocalAvg()/1e6)
		into.created += p.ContainersCreated()
		into.events += e.Fired()
	}
	return st.Requests, checkCell(c.prof.Name, len(c.inv), st.Requests)
}

func (w *nodeFaaSMem) close() {}

// ---------------------------------------------------------------- rack-azure

// rackAzure replays chains of 424-function Azure-like traces on a 3-node
// rack sharing one pool backed by a memory node: cross-tenant merging (3
// tenants, 2 opted in), shared cache and compression on, one opted-in tenant
// write-hot, and a per-node DRAM limit that forces keep-alive eviction.
type rackAzure struct {
	traces   []*trace.Trace
	tenantOf []map[string]string
}

func (w *rackAzure) prepare(seed int64, tr *tracer) error {
	w.generate(seed, rackReplays, rackSegments, tr)
	// Warm-up: one untimed replay of a single trace of a fixed seed, so the
	// warm-up costs the same whatever the seed.
	warm := &rackAzure{}
	warm.generate(0, 1, 1, tr)
	_, err := warm.replay(0, nil, tr)
	return err
}

// generate builds n replays of the given number of segments from the seed:
// a replay joins that many 424-function traces end to end in time, each
// segment with its own functions.
func (w *rackAzure) generate(seed int64, n, segments int, tr *tracer) {
	w.traces, w.tenantOf = nil, nil
	for r := 0; r < n; r++ {
		long := &trace.Trace{Duration: time.Duration(segments) * rackWindow}
		for k := 0; k < segments; k++ {
			id := tr.begin(spanGenerate, 0, -1)
			t := trace.Generate(trace.GenConfig{Duration: rackWindow}, seed*1_000_003+int64(r*segments+k))
			tr.end(id)
			shift := time.Duration(k) * rackWindow
			for _, f := range t.Functions {
				inv := make([]simtime.Time, len(f.Invocations))
				for j, at := range f.Invocations {
					inv[j] = at + shift
				}
				long.Functions = append(long.Functions, &trace.Function{ID: fmt.Sprintf("s%d-%s", k, f.ID), Invocations: inv})
			}
		}
		tenants := make(map[string]string, len(long.Functions))
		for i, f := range long.Functions {
			tenants[f.ID] = fmt.Sprintf("t%d", i%rackTenants)
		}
		w.traces = append(w.traces, long)
		w.tenantOf = append(w.tenantOf, tenants)
	}
}

func (w *rackAzure) measure(seconds float64, fullCycle bool, tr *tracer) (*phase, error) {
	return cycleLoop(seconds, len(w.traces), fullCycle, func(k int, into *modelStats) (int, error) {
		return w.replay(k, into, tr)
	}), nil
}

// replay runs trace k on a fresh rack and checks it.
func (w *rackAzure) replay(k int, into *modelStats, tr *tracer) (int, error) {
	t, tenants := w.traces[k], w.tenantOf[k]
	op := int64(k)
	root := tr.begin(spanOp, 0, op)
	defer tr.end(root)

	nodeCfg := memnode.Config{
		DRAMBytes:  256 << 20,
		SpillBytes: 512 << 20,
		MergeScope: memnode.MergeCrossTenant,
		MergeOptIn: []string{"t0", "t1"},
		TenantOf:   func(fn string) string { return tenants[fn] },
		CacheBytes: 64 << 20,
	}
	var policies []*core.FaaSMem
	e := simtime.NewEngine()
	id := tr.begin(spanClusterNew, root, op)
	c := cluster.New(e, cluster.Config{
		Nodes: rackNodes,
		Node: faas.Config{
			KeepAliveTimeout: keepAlive,
			NodeMemoryLimit:  rackLimitMB * 1_000_000,
			Seed:             int64(k),
		},
		Pool: rmem.Config{Node: &nodeCfg},
	}, func() policy.Policy {
		fm := core.New(core.Config{})
		policies = append(policies, fm)
		return fm
	})
	tr.end(id)
	profs := workload.Profiles()
	c.ReplayTrace(t, func(i int, f *trace.Function) *workload.Profile {
		p := *profs[i%len(profs)]
		if tenants[f.ID] == "t1" {
			p.RuntimeWriteRatio = 0.3
		}
		return &p
	})
	id = tr.begin(spanRunUntil, root, op)
	e.RunUntil(t.Duration + keepAlive)
	tr.end(id)
	id = tr.begin(spanCheck, root, op)
	inv := c.Pool().Node().CheckInvariants()
	tr.end(id)

	st := c.Stats()
	out := rackOutcome{
		scheduled:  t.TotalInvocations(),
		submitted:  st.Submitted,
		completed:  st.Requests,
		done:       st.Recovery.DoneNormal + st.Recovery.DoneRescheduled + st.Recovery.DoneReinit,
		invariants: inv,
	}
	if into != nil {
		var local float64
		for _, n := range c.Nodes() {
			for _, f := range n.Functions() {
				into.addFunction(f.Stats())
			}
			local += n.NodeLocalAvg() / 1e6
			into.created += n.ContainersCreated()
		}
		for _, fm := range policies {
			into.addCore(fm.Stats())
		}
		into.localMB = append(into.localMB, local)
		into.addPool(c.Pool())
		into.addMemnode(*st.MemNode)
		into.evicted += st.Evicted
		into.resched += st.Rescheduled
		into.events += e.Fired()
	}
	return st.Requests, checkRack(out)
}

func (w *rackAzure) close() {}
