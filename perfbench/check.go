package main

import (
	"fmt"
	"strings"
)

// Output checks. Each returns nil when an operation's outputs are correct;
// a non-nil error counts the operation as failed.

// checkCell checks one node-faasmem cell: every scheduled invocation of the
// function completed by the end of the run.
func checkCell(fn string, scheduled, completed int) error {
	if completed != scheduled {
		return fmt.Errorf("cell %s: %d of %d scheduled invocations completed", fn, completed, scheduled)
	}
	return nil
}

// rackOutcome is what one rack-azure replay is checked on.
type rackOutcome struct {
	scheduled int // invocations in the replayed trace
	submitted int // cluster.Stats().Submitted
	completed int // cluster.Stats().Requests
	// done sums the nodes' completion classes (normal, rescheduled,
	// re-initialised).
	done int
	// invariants is the memory node's CheckInvariants verdict, which
	// includes cross-tenant isolation.
	invariants error
}

// checkRack checks that every invocation was submitted, completed and
// classified exactly once, and that the memory node's invariants hold.
func checkRack(o rackOutcome) error {
	switch {
	case o.submitted != o.scheduled:
		return fmt.Errorf("rack: %d submitted, %d scheduled", o.submitted, o.scheduled)
	case o.completed != o.submitted:
		return fmt.Errorf("rack: %d completed, %d submitted", o.completed, o.submitted)
	case o.done != o.submitted:
		return fmt.Errorf("rack: completion classes sum to %d, %d submitted", o.done, o.submitted)
	case o.invariants != nil:
		return fmt.Errorf("rack: memory node invariants: %w", o.invariants)
	}
	return nil
}

// reply is what one gateway-mix HTTP exchange is checked on.
type reply struct {
	status int
	// requests is the simulated request count a successful /run reports
	// (completed stage requests for a workflow run); -1 for other paths.
	requests int
	// body holds the response text of a /metrics scrape.
	body string
}

// checkReply checks the status against the expected one, that a successful
// /run simulated at least one request, and that a scrape carries the
// gateway's run counter.
func checkReply(path string, want int, r reply) error {
	switch {
	case r.status != want:
		return fmt.Errorf("%s: status %d, want %d", path, r.status, want)
	case want == 200 && path == "/run" && r.requests <= 0:
		return fmt.Errorf("%s: 200 with %d simulated requests", path, r.requests)
	case want == 200 && path == "/metrics" && !strings.Contains(r.body, "\ngateway_runs_total "):
		return fmt.Errorf("%s: scrape lacks gateway_runs_total", path)
	}
	return nil
}
