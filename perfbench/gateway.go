package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/gateway"
	"github.com/faasmem/faasmem/internal/memnode"
)

// Gateway-mix shape: a closed loop of gwClients connections, each posting
// its own fixed sequence of gwRounds repetitions of gwPattern.
const (
	gwClients = 2
	gwRounds  = 16
	// gwWarmRounds rounds per client warm a fresh server up.
	gwWarmRounds = 4
	opHeader     = "X-Bench-Op"
)

// gwPattern is one round of a client's sequence, weighted towards
// small-footprint benchmarks so that the gateway's own layers (HTTP, JSON,
// telemetry) are a visible share of the work. %d is replaced by the body's
// seed.
var gwPattern = []struct {
	method, path, body string
	want               int
}{
	{"POST", "/run", `{"bench":"json","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"web","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"float","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"json","bursty":true,"seed":%d}`, 200},
	{"POST", "/run", `{"bench":"pyaes","policy":"tmo","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"chameleon","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"float","policy":"damon","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"json","merge_scope":"cross-tenant","merge_opt_in":["json"],"cache_mb":64,"seed":%d}`, 200},
	{"POST", "/run", `{"bench":"pyaes","seed":%d}`, 200},
	{"POST", "/run", `{"workflow":"pipeline","workflow_runs":1,"seed":%d}`, 200},
	{"POST", "/run", `{"bench":"json","seed":%d}`, 200},
	{"POST", "/run", `{"bench":"float","fault_intensity":0.3,"seed":%d}`, 200},
	{"POST", "/run", `{"bench":"no-such-bench","seed":%d}`, 400},
	{"POST", "/run", `{"bench":"chameleon","seed":%d}`, 200},
	{"GET", "/metrics", "", 200},
}

type gwRequest struct {
	method, path string
	body         []byte
	want         int
}

// gatewayMix serves gateway.Handler() on loopback and drives it from
// gwClients closed-loop clients.
type gatewayMix struct {
	seqs   [gwClients][]gwRequest
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	tracer *tracer
}

func (w *gatewayMix) prepare(seed int64, tr *tracer) error {
	w.seqs = sequences(seed, gwRounds)
	w.tracer = tr
	if err := w.start(); err != nil {
		return err
	}
	// Warm-up: each client sends a sequence of a fixed seed once, untimed,
	// so the warm-up costs the same whatever the seed.
	_, err := w.drive(sequences(0, gwWarmRounds), 0, tr)
	return err
}

// sequences builds each client's request sequence: rounds repetitions of
// gwPattern, every body with its own seed.
func sequences(seed int64, rounds int) [gwClients][]gwRequest {
	var seqs [gwClients][]gwRequest
	for c := range seqs {
		for r := 0; r < rounds; r++ {
			for i, p := range gwPattern {
				req := gwRequest{method: p.method, path: p.path, want: p.want}
				if p.body != "" {
					s := seed*1_000_003 + int64((c*rounds+r)*len(gwPattern)+i) + 1
					req.body = []byte(fmt.Sprintf(p.body, s))
				}
				seqs[c] = append(seqs[c], req)
			}
		}
	}
	return seqs
}

// start serves a fresh gateway on a loopback port, wrapped in a middleware
// that times the handler as a span of the request's operation.
func (w *gatewayMix) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gateway: listen: %w", err)
	}
	id := w.tracer.begin(spanGatewayInit, 0, -1)
	h := gateway.Handler()
	w.tracer.end(id)
	w.srv = &http.Server{
		Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			id := w.tracer.begin(spanHandler, 0, op)
			h.ServeHTTP(rw, r)
			w.tracer.end(id)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: gwClients,
			MaxConnsPerHost:     gwClients,
			DisableCompression:  true,
		},
	}
	return nil
}

// gwReply is the part of a /run response the benchmark reads.
type gwReply struct {
	Requests int `json:"requests"`
	Outcome  *struct {
		AvgLocalMB        float64
		Requests          int
		ColdStarts        int
		FaultPages        int64
		RuntimeFaultPages int64
		OffloadedMB       float64
		RecalledMB        float64
		CoreStats         *core.Stats
		MemNode           *memnode.Stats
	} `json:"outcome"`
	Row *struct {
		Invocations int `json:"invocations"`
	} `json:"row"`
}

// clientLog is what one client observed.
type clientLog struct {
	rtts              []float64 // ms
	simReqs           int64
	attempted, failed int
	model             modelStats
	badRequests       int
}

// measure always completes the reference cycle: it is short.
func (w *gatewayMix) measure(seconds float64, _ bool, tr *tracer) (*phase, error) {
	return w.drive(w.seqs, seconds, tr)
}

// drive runs the closed loop: one goroutine per client, each sending its
// sequence until seconds have passed and it has sent the sequence once.
func (w *gatewayMix) drive(seqs [gwClients][]gwRequest, seconds float64, tr *tracer) (*phase, error) {
	logs := make([]clientLog, gwClients)
	errs := make([]error, gwClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.runClient(c, seqs[c], seconds, start, &logs[c], tr)
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), host: map[string]float64{}}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var m modelStats
	var rtts []float64
	bad := 0
	for i := range logs {
		l := &logs[i]
		ph.simReqs += l.simReqs
		ph.attempted += l.attempted
		ph.failed += l.failed
		rtts = append(rtts, l.rtts...)
		m.merge(&l.model)
		bad += l.badRequests
	}
	ph.model = m.figures()
	ph.model["gateway.bad_request"] = float64(bad)
	// A percentile is reported only with at least ten samples beyond it.
	if len(rtts) >= 20 {
		ph.host["rtt_p50_ms"] = quantile(rtts, 0.5)
	}
	if len(rtts) >= 100 {
		ph.host["rtt_p90_ms"] = quantile(rtts, 0.9)
	}
	return ph, nil
}

// runClient is one closed-loop client: it sends its sequence in order,
// each request after the previous reply, until seconds have passed since
// start and it has completed the sequence at least once. The first pass
// through the sequence is the reference cycle its model statistics cover.
func (w *gatewayMix) runClient(c int, seq []gwRequest, seconds float64, start time.Time, l *clientLog, tr *tracer) error {
	for i := 0; i < len(seq) || time.Since(start).Seconds() < seconds; i++ {
		req := &seq[i%len(seq)]
		op := int64(c)<<32 | int64(i)
		t0 := time.Now()
		id := tr.begin(spanRoundTrip, 0, op)
		r, err := w.exchange(req, op)
		tr.end(id)
		if err != nil {
			return err
		}
		l.rtts = append(l.rtts, float64(time.Since(t0).Nanoseconds())/1e6)
		l.attempted++
		var into *modelStats
		if i < len(seq) {
			into = &l.model
		}
		n, cerr := w.decode(req, r, into)
		if r.status == http.StatusBadRequest && into != nil {
			l.badRequests++
		}
		l.simReqs += int64(n)
		if cerr != nil {
			l.failed++
		}
	}
	return nil
}

// exchange sends one request and reads the whole reply. An error here is a
// transport failure, which ends the run.
func (w *gatewayMix) exchange(req *gwRequest, op int64) (reply, error) {
	hr, err := http.NewRequest(req.method, w.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return reply{}, fmt.Errorf("gateway: %w", err)
	}
	hr.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := w.client.Do(hr)
	if err != nil {
		return reply{}, fmt.Errorf("gateway: %s %s: %w", req.method, req.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("gateway: %s %s: read reply: %w", req.method, req.path, err)
	}
	return reply{status: resp.StatusCode, requests: -1, body: string(body)}, nil
}

// decode reads the simulated request count of a successful /run reply,
// adds its model statistics to into (when non-nil) and checks the reply.
func (w *gatewayMix) decode(req *gwRequest, r reply, into *modelStats) (int, error) {
	if req.path == "/run" && r.status == http.StatusOK {
		var rep gwReply
		if err := json.Unmarshal([]byte(r.body), &rep); err != nil {
			return 0, fmt.Errorf("/run: decode reply: %w", err)
		}
		switch {
		case rep.Outcome != nil:
			r.requests = rep.Requests
			if o := rep.Outcome; into != nil {
				into.requests += o.Requests
				into.cold += o.ColdStarts
				into.localMB = append(into.localMB, o.AvgLocalMB)
				into.faultPages += o.FaultPages
				into.runtimeFault += o.RuntimeFaultPages
				into.offloaded += int64(o.OffloadedMB * 1e6)
				into.recalled += int64(o.RecalledMB * 1e6)
				if o.CoreStats != nil {
					into.addCore(o.CoreStats)
				}
				if o.MemNode != nil {
					into.addMemnode(*o.MemNode)
				}
			}
		case rep.Row != nil:
			r.requests = rep.Row.Invocations
		}
	}
	return max(r.requests, 0), checkReply(req.path, req.want, r)
}

func (w *gatewayMix) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // the server has no other owner; Serve's result below is what matters
	<-w.served
	w.client.CloseIdleConnections()
	w.srv = nil
}
