// Command perfbench is the repository benchmark: it drives the simulator's
// public layers (trace, faas, cluster, simtime, memnode, gateway) serially
// from one process, times the calls, checks their outputs and prints one
// JSON result line.
//
//	go run . --workload node-faasmem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run (spans around every
// call into a layer, a CPU profile folded by package, public counters).
// README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// bench is one benchmark workload. prepare builds its inputs from the
// seed and warms it up (untimed); measure runs the timed phase.
type bench interface {
	prepare(seed int64, tr *tracer) error
	// measure runs for at least the given host seconds and at least one
	// operation; with fullCycle, also until one full reference cycle of the
	// prepared inputs is complete.
	measure(seconds float64, fullCycle bool, tr *tracer) (*phase, error)
	// close releases what prepare started.
	close()
}

// phase is what one timed phase measured.
type phase struct {
	elapsed   time.Duration
	simReqs   int64 // simulated requests completed during the phase
	attempted int
	failed    int
	// model holds the deterministic per-seed statistics of the reference
	// cycle: the sim_* end-to-end values and the per-layer counts.
	model map[string]float64
	// host holds host-time figures that are not deterministic (rtt_*).
	host map[string]float64
	// refNanos is the host time of each operation of the reference cycle
	// the phase ran, in the cycle's order (batch workloads only).
	refNanos []int64
}

func (p *phase) reqPerSec() float64 { return float64(p.simReqs) / p.elapsed.Seconds() }

func newBench(name string) (bench, error) {
	switch name {
	case "node-faasmem":
		return &nodeFaaSMem{}, nil
	case "rack-azure":
		return &rackAzure{}, nil
	case "gateway-mix":
		return &gatewayMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (options: node-faasmem, rack-azure, gateway-mix)", name)
}

func main() {
	name := flag.String("workload", "node-faasmem", "workload: node-faasmem, rack-azure or gateway-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds the timed phase measures")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for span and profile files of traced runs")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *traced == 1, *outDir, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload run and writes a human-readable report of every
// figure it computed to report.
func run(name string, seed int64, seconds float64, traced bool, outDir string, report io.Writer) (*result, error) {
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	var setups []float64
	var w bench
	tr := &tracer{}
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if w, err = prepared(w, name, seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	values := map[string]float64{"setup_s": median(setups)}
	var ph *phase
	if !traced {
		var err error
		if ph, err = timedPhase(w, seconds, true, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	} else {
		// A short untraced phase, then a fresh, traced set-up and a traced
		// phase over at least the whole reference cycle. Both phases start
		// right after a set-up; the tracing overhead compares the host time
		// of the operations both ran.
		plain, err := timedPhase(w, seconds/4, false, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr.reset(true)
		if w, err = prepared(w, name, seed, tr); err != nil {
			return nil, err
		}
		setupTrace := tr.reset(true)
		stopProfile, err := startProfile(outDir, name)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ph, err = timedPhase(w, seconds/2, true, tr)
		runtime.ReadMemStats(&after)
		profile, perr := stopProfile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if perr != nil {
			return nil, perr
		}
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		for k, v := range cpuShares(profile) {
			values[k] = v
		}
		for k, v := range tr.layerFigures(setupTrace) {
			values[k] = v
		}
		values["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		values["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		values["bench.trace_overhead_pct"] = overheadPct(plain, ph)
		if err := tr.write(filepath.Join(outDir, name+"-spans.json"), setupTrace); err != nil {
			return nil, err
		}
	}
	values["sim_req_per_s"] = ph.reqPerSec()
	values["peak_rss_mb"] = peakRSSMB()
	values["failed_pct"] = 100 * float64(ph.failed) / float64(max(ph.attempted, 1))
	for k, v := range ph.model {
		values[k] = v
	}
	for k, v := range ph.host {
		values[k] = v
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		values[m.name] += 0 // a layer the workload does not reach reads 0
	}

	fmt.Fprintf(report, "workload %s seed %d: %d operations, %d failed, timed %.2fs\n",
		name, seed, ph.attempted, ph.failed, ph.elapsed.Seconds())
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(report, "  %-32s %14.6g %s\n", k, values[k], unitOf(k))
	}
	fmt.Fprintf(report, "  model digest %s\n", digest(ph.model))

	res := &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// prepared closes the previous instance of the workload, if any, and
// returns a freshly prepared one.
func prepared(prev bench, name string, seed int64, tr *tracer) (bench, error) {
	if prev != nil {
		prev.close()
	}
	w, err := newBench(name)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(seed, tr); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	return w, nil
}

// timedPhase collects garbage left by set-up, then times the workload.
func timedPhase(w bench, seconds float64, fullCycle bool, tr *tracer) (*phase, error) {
	runtime.GC()
	ph, err := w.measure(seconds, fullCycle, tr)
	if err != nil {
		return nil, err
	}
	if ph.attempted == 0 || ph.simReqs == 0 {
		return nil, errors.New("timed phase completed no work")
	}
	return ph, nil
}

// overheadPct is the throughput lost to tracing. Where both phases timed
// the operations of the reference cycle one by one, it compares the host
// time of the operations both ran; otherwise (the gateway's concurrent
// clients) it compares the phases' throughput over the same repeating mix.
func overheadPct(plain, traced *phase) float64 {
	k := min(len(plain.refNanos), len(traced.refNanos))
	if k == 0 {
		return 100 * (1 - traced.reqPerSec()/plain.reqPerSec())
	}
	var p, t int64
	for i := 0; i < k; i++ {
		p += plain.refNanos[i]
		t += traced.refNanos[i]
	}
	return 100 * (1 - float64(p)/float64(t))
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
