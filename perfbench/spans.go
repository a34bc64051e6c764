package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names, one per boundary the benchmark crosses into a layer.
const (
	spanOp          = "bench.op" // one operation: a cell, a replay or an HTTP request
	spanGenerate    = "trace.Generate"
	spanKeepAlive   = "trace.SimulateKeepAlive"
	spanFaasNew     = "faas.New"
	spanClusterNew  = "cluster.New"
	spanRunUntil    = "simtime.RunUntil"
	spanCheck       = "memnode.CheckInvariants"
	spanRoundTrip   = "gateway.roundtrip" // client side of one HTTP request
	spanHandler     = "gateway.handler"   // server side, from the benchmark's middleware
	spanGatewayInit = "gateway.Handler"
)

// spanRec is one recorded span. Times are nanoseconds since the tracer was
// last reset; Op groups the spans of one operation.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. While off, begin and end
// cost a branch. Safe for concurrent use: the gateway workload records from
// client and server goroutines.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []spanRec
}

// reset returns the spans recorded so far, clears them and switches
// recording on or off.
func (t *tracer) reset(on bool) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.spans
	t.spans = nil
	t.on = on
	t.epoch = time.Now()
	return old
}

// begin opens a span and returns its id (0 while off).
func (t *tracer) begin(name string, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, spanRec{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= len(t.spans) {
		t.spans[id-1].End = int64(time.Since(t.epoch))
	}
}

// durations lists the closed spans of one name, in milliseconds, keyed by op.
func durations(spans []spanRec, name string) map[int64][]float64 {
	out := map[int64][]float64{}
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out[s.Op] = append(out[s.Op], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func flatten(m map[int64][]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v...)
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// layerFigures derives the span-timed per-layer metrics from the set-up
// spans and the traced phase's spans.
func (t *tracer) layerFigures(setup []spanRec) map[string]float64 {
	t.mu.Lock()
	timed := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	out := map[string]float64{
		// Input generation happens once per set-up: totals per set-up.
		"trace.generate_ms":  sum(flatten(durations(setup, spanGenerate))),
		"trace.keepalive_ms": sum(flatten(durations(setup, spanKeepAlive))),
		// Calls made per operation: mean per call.
		"faas.construct_ms":    mean(flatten(durations(timed, spanFaasNew))),
		"cluster.construct_ms": mean(flatten(durations(timed, spanClusterNew))),
		"memnode.check_ms":     mean(flatten(durations(timed, spanCheck))),
		"simtime.run_s":        mean(flatten(durations(timed, spanRunUntil))) / 1e3,
	}
	handler := durations(timed, spanHandler)
	if len(handler) > 0 {
		var transport []float64
		for op, rtts := range durations(timed, spanRoundTrip) {
			if h := handler[op]; len(h) == 1 && len(rtts) == 1 {
				transport = append(transport, rtts[0]-h[0])
			}
		}
		out["gateway.server_ms_p50"] = median(flatten(handler))
		out["gateway.transport_ms_p50"] = median(transport)
	}
	return out
}

// write stores the set-up and traced-phase spans as JSON.
func (t *tracer) write(path string, setup []spanRec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(map[string][]spanRec{"setup": setup, "timed": t.spans})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
