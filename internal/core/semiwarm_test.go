package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/faasmem/faasmem/internal/mglru"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
)

// offloadView is a policy.View over a bare space whose OffloadPages records
// every victim list and truncates it the way the link and the memory node
// do: a prefix cap on the whole batch, then a per-class cap that leaves some
// init pages local while later runtime pages still move.
type offloadView struct {
	policy.View
	space             *pagemem.Space
	runtime, init     pagemem.Range
	batchCap, initCap func(call int) int
	calls             [][]pagemem.PageID
}

func (v *offloadView) Space() *pagemem.Space       { return v.space }
func (v *offloadView) RuntimeRange() pagemem.Range { return v.runtime }
func (v *offloadView) InitRange() pagemem.Range    { return v.init }
func (v *offloadView) OffloadScale() float64       { return 1 }

func (v *offloadView) OffloadPages(_ *simtime.Engine, victims []pagemem.PageMask) int {
	ids := expandMasks(victims)
	call := len(v.calls)
	v.calls = append(v.calls, ids)
	if c := v.batchCap(call); c < len(ids) {
		ids = ids[:c]
	}
	initLeft := v.initCap(call)
	moved := 0
	for _, id := range ids {
		if v.init.Contains(id) {
			if initLeft == 0 {
				continue
			}
			initLeft--
		}
		v.space.SetState(id, pagemem.Remote)
		moved++
	}
	return moved
}

// expandMasks lists the pages of a victim mask list in list order.
func expandMasks(ms []pagemem.PageMask) []pagemem.PageID {
	var ids []pagemem.PageID
	for _, m := range ms {
		for b := m.Mask; b != 0; b &= b - 1 {
			ids = append(ids, m.Base()+pagemem.PageID(bits.TrailingZeros64(b)))
		}
	}
	return ids
}

// newOffloadView builds a runtime+init space with a random mix of inactive,
// hot and remote pages (seeded, so two calls build identical spaces).
func newOffloadView(seed int64, batchCap, initCap func(int) int) *offloadView {
	s := pagemem.NewSpace(pagemem.DefaultPageSize)
	rt := s.Alloc(pagemem.SegRuntime, 1500)
	in := s.Alloc(pagemem.SegInit, 2300)
	rng := rand.New(rand.NewSource(seed))
	for id := pagemem.PageID(0); id < in.End; id++ {
		switch rng.Intn(4) {
		case 0:
			s.SetState(id, pagemem.Hot)
		case 1:
			s.SetState(id, pagemem.Remote)
		}
	}
	return &offloadView{space: s, runtime: rt, init: in, batchCap: batchCap, initCap: initCap}
}

// TestGradualOffloadCursorMatchesRescan drives gradual offloading tick by
// tick on two identical containers: one resumes its scans from the cursors,
// the other rescans every range from its start each tick (the cursor reset
// before each tick). Victim lists must match tick for tick, including when
// the pool truncates an offload and the truncated pages must be rescanned.
func TestGradualOffloadCursorMatchesRescan(t *testing.T) {
	all := func(int) int { return 1 << 30 }
	for _, tc := range []struct {
		name              string
		perTick           int64
		batchCap, initCap func(int) int
	}{
		{"untruncated", 300, all, all},
		{"budget-within-first-scan", 40, all, all},
		{"batch-truncated", 300, func(call int) int { return 300 - 70*(call%4) }, all},
		{"init-class-truncated", 500, all, func(call int) int { return 30 * (call % 3) }},
		{"both-truncated", 700, func(call int) int { return 1 + 211*(call%5) }, func(call int) int { return 17 * (call % 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fm := New(Config{BytesPerSecond: tc.perTick * pagemem.DefaultPageSize})
			e := simtime.NewEngine()
			cursorView := newOffloadView(3, tc.batchCap, tc.initCap)
			rescanView := newOffloadView(3, tc.batchCap, tc.initCap)
			cursor := &container{parent: fm, cfg: fm.cfg, view: cursorView}
			rescan := &container{parent: fm, cfg: fm.cfg, view: rescanView}
			for tick := 0; tick < 400 && len(cursorView.calls) == len(rescanView.calls); tick++ {
				cursor.gradualOffload(e)
				rescan.resetScan()
				rescan.gradualOffload(e)
			}
			if !reflect.DeepEqual(cursorView.calls, rescanView.calls) {
				for i := range cursorView.calls {
					if i >= len(rescanView.calls) || !reflect.DeepEqual(cursorView.calls[i], rescanView.calls[i]) {
						t.Fatalf("tick %d: cursor victims differ from a full rescan's", i)
					}
				}
				t.Fatalf("cursor made %d offload calls, rescan %d", len(cursorView.calls), len(rescanView.calls))
			}
			if n := len(cursorView.calls); n < 5 {
				t.Fatalf("only %d offload ticks ran", n)
			}
			if local := cursorView.space.LocalBytes(); local != 0 {
				t.Fatalf("%d local bytes left after the drain", local)
			}
		})
	}
}

// TestPucketRollbackMatchesPerPage checks the word-level Rollback against a
// per-page walk (SetState, ClearAccessed and Demote per hot page) on a Pucket whose bounds are not word-aligned, whose hot pages sit
// in several generations, and whose neighbours have hot pages that must
// stay put.
func TestPucketRollbackMatchesPerPage(t *testing.T) {
	type side struct {
		s   *pagemem.Space
		lru *mglru.LRU
		p   Pucket
	}
	build := func() side {
		s := pagemem.NewSpace(pagemem.DefaultPageSize)
		lru := mglru.New(s)
		s.Alloc(pagemem.SegRuntime, 100)
		lru.InsertBarrier()
		s.Alloc(pagemem.SegInit, 333)
		gen, seg := lru.InsertBarrier()
		s.Alloc(pagemem.SegExec, 50)
		lru.InsertBarrier()
		rng := rand.New(rand.NewSource(5))
		for id := pagemem.PageID(0); int(id) < s.NumPages(); id++ {
			switch rng.Intn(3) {
			case 0:
				s.SetState(id, pagemem.Hot)
				lru.Promote(id)
			case 1:
				s.SetState(id, pagemem.Remote)
			}
			if rng.Intn(5) == 0 {
				lru.Demote(id, mglru.GenID(rng.Intn(lru.NumGenerations())))
			}
		}
		return side{s, lru, Pucket{Seg: seg, Gen: gen}}
	}
	fast, slow := build(), build()
	got := fast.p.Rollback(fast.s, fast.lru)
	want := 0
	for id := slow.p.Seg.Start; id < slow.p.Seg.End; id++ {
		if slow.s.State(id) == pagemem.Hot {
			slow.s.SetState(id, pagemem.Inactive)
			slow.s.ClearAccessed(id)
			slow.lru.Demote(id, slow.p.Gen)
			want++
		}
	}
	if got != want {
		t.Fatalf("Rollback moved %d pages, want %d", got, want)
	}
	if fast.lru.Promotions() != slow.lru.Promotions() || fast.lru.Demotions() != slow.lru.Demotions() {
		t.Fatalf("churn = %d/%d, want %d/%d", fast.lru.Promotions(), fast.lru.Demotions(),
			slow.lru.Promotions(), slow.lru.Demotions())
	}
	for g := mglru.GenID(0); int(g) < slow.lru.NumGenerations(); g++ {
		if a, b := fast.lru.GenPages(g), slow.lru.GenPages(g); a != b {
			t.Fatalf("gen %d pages = %d, want %d", g, a, b)
		}
	}
	for id := pagemem.PageID(0); int(id) < slow.s.NumPages(); id++ {
		if fast.s.State(id) != slow.s.State(id) || fast.s.Accessed(id) != slow.s.Accessed(id) ||
			fast.lru.GenOf(id) != slow.lru.GenOf(id) {
			t.Fatalf("page %d: state/accessed/gen %v/%v/%d, want %v/%v/%d", id,
				fast.s.State(id), fast.s.Accessed(id), fast.lru.GenOf(id),
				slow.s.State(id), slow.s.Accessed(id), slow.lru.GenOf(id))
		}
	}
}
