package faas

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/fastswap"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// classOf maps a page to its lifecycle class, one page at a time.
func (c *Container) classOf(id pagemem.PageID) memnode.Class {
	switch {
	case c.runtimeRange.Contains(id):
		return memnode.ClassRuntime
	case c.initRange.Contains(id):
		return memnode.ClassInit
	case c.execRange.Contains(id):
		return memnode.ClassExec
	default:
		return memnode.ClassOther
	}
}

// offloadPagesPerPage is the page-at-a-time OffloadPages that the word-mask
// path replaced, kept as its reference: state filtering, the batch cap and
// the per-class split and acceptance walk the victim IDs one by one. It
// covers the accounting the differential test compares (space, swap slots,
// pool, cgroup); telemetry is off on the test platforms.
func (c *Container) offloadPagesPerPage(e *simtime.Engine, ids []pagemem.PageID) int {
	if c.dead || len(ids) == 0 {
		return 0
	}
	now := e.Now()
	pageBytes := int64(c.space.PageSize())
	max := len(ids)
	if budget := int(c.p.pool.AcceptableBytes(now) / pageBytes); budget < max {
		max = budget
	}
	max = c.p.swap.Allocate(max)
	var cand []pagemem.PageID
	var counts rmem.ClassCounts
	for _, id := range ids {
		if len(cand) >= max {
			break
		}
		st := c.space.State(id)
		if st != pagemem.Inactive && st != pagemem.Hot {
			continue
		}
		cand = append(cand, id)
		counts[c.classOf(id)]++
	}
	if len(cand) == 0 {
		c.p.swap.Release(max)
		return 0
	}
	accepted, _, err := c.p.pool.OffloadDescribed(now, c.owner, c.fn.id, counts, pageBytes)
	if err != nil {
		c.p.swap.Release(max)
		return 0
	}
	moved := c.flipAcceptedPerPage(cand, accepted)
	if moved < max {
		c.p.swap.Release(max - moved)
	}
	if moved > 0 {
		c.cg.Offload(now, int64(moved)*pageBytes)
	}
	return moved
}

// flipAcceptedPerPage is flipAccepted over a candidate ID list: each class
// accepts its first accepted[cls] candidates in list order.
func (c *Container) flipAcceptedPerPage(cand []pagemem.PageID, accepted rmem.ClassCounts) int {
	moved := 0
	for _, id := range cand {
		cls := c.classOf(id)
		if accepted[cls] == 0 {
			continue
		}
		accepted[cls]--
		c.space.SetState(id, pagemem.Remote)
		moved++
	}
	return moved
}

// appendPage appends page id to a victim mask list: it joins the last entry
// when it lies above that entry's highest page in the same word, otherwise
// it starts a new entry, so the list expands to the appended IDs in order.
func appendPage(ms []pagemem.PageMask, id pagemem.PageID) []pagemem.PageMask {
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	if k := len(ms) - 1; k >= 0 && ms[k].Word == w && ms[k].Mask < bit {
		ms[k].Mask |= bit
		return ms
	}
	return append(ms, pagemem.PageMask{Word: w, Mask: bit})
}

// offloadProfile has segment sizes that are not multiples of 64 pages, so
// words straddle the runtime/init and init/exec boundaries.
func offloadProfile() *workload.Profile {
	p := tinyProfile()
	p.RuntimeBytes = 300 * pagemem.DefaultPageSize
	p.InitBytes = 150 * pagemem.DefaultPageSize
	p.ExecBytes = 70 * pagemem.DefaultPageSize
	return p
}

// offloadSide is one idle container with a seeded mix of inactive, hot and
// remote pages across its runtime, init and (revived) exec segments.
type offloadSide struct {
	e *simtime.Engine
	p *Platform
	c *Container
}

func newOffloadSide(t *testing.T, cfg Config, seed int64) offloadSide {
	t.Helper()
	e := simtime.NewEngine()
	cfg.KeepAliveTimeout = time.Hour
	cfg.Seed = 1
	p := New(e, cfg, policy.NoOffload{})
	f := p.Register("f", offloadProfile())
	p.ScheduleInvocations("f", []simtime.Time{0})
	e.RunUntil(simtime.Time(2 * time.Second))
	if len(f.idle) != 1 {
		t.Fatalf("%d idle containers, want 1", len(f.idle))
	}
	c := f.idle[0]
	c.space.ReuseRange(c.execRange)
	rng := rand.New(rand.NewSource(seed))
	for id := pagemem.PageID(0); int(id) < c.space.NumPages(); id++ {
		switch rng.Intn(4) {
		case 0:
			c.space.SetState(id, pagemem.Hot)
		case 1:
			c.space.SetState(id, pagemem.Remote)
		}
	}
	return offloadSide{e, p, c}
}

// randomVictims lists about half the container's pages in shuffled chunks
// (ascending inside a chunk), as IDs and as the equivalent mask list.
func randomVictims(rng *rand.Rand, pages int) ([]pagemem.PageID, []pagemem.PageMask) {
	type chunk struct{ lo, hi int }
	var chunks []chunk
	for lo := 0; lo < pages; {
		hi := min(pages, lo+1+rng.Intn(150))
		chunks = append(chunks, chunk{lo, hi})
		lo = hi
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	var ids []pagemem.PageID
	var ms []pagemem.PageMask
	for _, ch := range chunks {
		for id := ch.lo; id < ch.hi; id++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, pagemem.PageID(id))
				ms = appendPage(ms, pagemem.PageID(id))
			}
		}
	}
	return ids, ms
}

// sameSpaces fails unless two containers' spaces agree page by page and in
// every segment counter.
func sameSpaces(t *testing.T, what string, a, b *pagemem.Space) {
	t.Helper()
	for id := pagemem.PageID(0); int(id) < b.NumPages(); id++ {
		if got, want := a.State(id), b.State(id); got != want {
			t.Fatalf("%s: page %d state %v, want %v", what, id, got, want)
		}
	}
	for seg := pagemem.Segment(0); seg < pagemem.NumSegments; seg++ {
		for st := pagemem.Free; st <= pagemem.Remote; st++ {
			if got, want := a.Count(seg, st), b.Count(seg, st); got != want {
				t.Fatalf("%s: Count(%v, %v) = %d, want %d", what, seg, st, got, want)
			}
		}
	}
}

// TestOffloadPagesMatchesPerPage replays random victim lists through the
// word-mask OffloadPages and the per-page reference on twin containers
// whose segment boundaries fall inside words, under pools that truncate the
// batch by link backlog, by swap slots, and by a memory-node tenant quota
// that accepts part of a class and rejects the classes after it. Moved
// counts, page states, segment counters, swap slots, pool bytes and the
// cgroup's remote bytes must agree after every call.
func TestOffloadPagesMatchesPerPage(t *testing.T) {
	page := int64(pagemem.DefaultPageSize)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unlimited", Config{}},
		{"link-backlog", Config{Pool: rmem.Config{Bandwidth: 90 * page, MaxBacklog: time.Second}}},
		{"swap-slots", Config{Swap: fastswap.Config{Slots: 200}}},
		{"memnode-quota", Config{Pool: rmem.Config{Node: &memnode.Config{
			DRAMBytes: 64 << 20, SpillBytes: 64 << 20, TenantQuotaBytes: 230 * page,
		}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := newOffloadSide(t, tc.cfg, 7)
			slow := newOffloadSide(t, tc.cfg, 7)
			sameSpaces(t, "setup", fast.c.space, slow.c.space)
			rng := rand.New(rand.NewSource(11))
			truncated := false
			for call := 0; call < 12; call++ {
				ids, ms := randomVictims(rng, slow.c.space.NumPages())
				got := fast.c.OffloadPages(fast.e, ms)
				want := slow.c.offloadPagesPerPage(slow.e, ids)
				if got != want {
					t.Fatalf("call %d: moved %d pages, want %d", call, got, want)
				}
				sameSpaces(t, "after call", fast.c.space, slow.c.space)
				if a, b := fast.p.swap.Used(), slow.p.swap.Used(); a != b {
					t.Fatalf("call %d: swap slots used %d, want %d", call, a, b)
				}
				if a, b := fast.p.pool.Used(), slow.p.pool.Used(); a != b {
					t.Fatalf("call %d: pool bytes %d, want %d", call, a, b)
				}
				if a, b := fast.c.cg.RemoteBytes(), slow.c.cg.RemoteBytes(); a != b {
					t.Fatalf("call %d: cgroup remote bytes %d, want %d", call, a, b)
				}
				local := 0
				for _, id := range ids {
					if st := slow.c.space.State(id); st == pagemem.Inactive || st == pagemem.Hot {
						local++
					}
				}
				truncated = truncated || (want > 0 && local > 0)
				// Let the link drain part of its backlog and hand back some
				// swap slots before the next call, so truncation recurs.
				next := fast.e.Now() + simtime.Time(300*time.Millisecond)
				fast.e.RunUntil(next)
				slow.e.RunUntil(next)
				free := min(slow.p.swap.Used(), 60)
				fast.p.swap.Release(free)
				slow.p.swap.Release(free)
			}
			if tc.name != "unlimited" && !truncated {
				t.Fatal("no call was truncated; the pool configuration tests nothing")
			}
		})
	}
}

// TestFlipAcceptedMatchesPerPage checks the per-class acceptance split on
// its own, with every class accepted only in part — a split no single
// memory-node batch produces, since the node fills classes in order.
func TestFlipAcceptedMatchesPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		fast := newOffloadSide(t, Config{}, int64(trial))
		slow := newOffloadSide(t, Config{}, int64(trial))
		_, ms := randomVictims(rng, slow.c.space.NumPages())
		var cand []pagemem.PageMask
		var ids []pagemem.PageID
		var counts rmem.ClassCounts
		for _, v := range ms {
			m := v.Mask & fast.c.space.LocalWord(v.Word)
			if m == 0 {
				continue
			}
			cand = append(cand, pagemem.PageMask{Word: v.Word, Mask: m})
			for b := m; b != 0; b &= b - 1 {
				id := v.Base() + pagemem.PageID(bits.TrailingZeros64(b))
				ids = append(ids, id)
				counts[slow.c.classOf(id)]++
			}
		}
		var accepted rmem.ClassCounts
		for cls, n := range counts {
			accepted[cls] = rng.Intn(n + 1)
		}
		got := fast.c.flipAccepted(cand, accepted)
		want := slow.c.flipAcceptedPerPage(ids, accepted)
		if got != want {
			t.Fatalf("trial %d: moved %d pages, want %d (accepted %v of %v)", trial, got, want, accepted, counts)
		}
		sameSpaces(t, "after flip", fast.c.space, slow.c.space)
	}
}

// touchRangePerPage is the sequential page walk touchRange must equal: each
// page of [start, end) gets its access bit; an Inactive page becomes Hot; a
// Remote page faults, becomes Hot and pulls in up to window contiguous
// Remote neighbours below seg.End as readahead.
func (c *Container) touchRangePerPage(seg pagemem.Range, start, end pagemem.PageID, window int) (faults, readahead int) {
	sp := c.space
	for id := start; id < end; id++ {
		switch sp.Touch(id) {
		case pagemem.Remote:
			faults++
			sp.SetState(id, pagemem.Hot)
			c.lru.Promote(id)
			for next := id + 1; next <= id+pagemem.PageID(window) && next < seg.End && sp.State(next) == pagemem.Remote; next++ {
				readahead++
				sp.SetState(next, pagemem.Hot)
				c.lru.Promote(next)
			}
		case pagemem.Inactive:
			sp.SetState(id, pagemem.Hot)
			c.lru.Promote(id)
		}
	}
	return faults, readahead
}

// TestTouchRangeMatchesPerPage touches random spans of the runtime and init
// segments of twin containers, word-at-a-time on one and page by page on
// the other, with and without a readahead window. Fault and readahead
// counts, page states, access bits and LRU generations must agree.
func TestTouchRangeMatchesPerPage(t *testing.T) {
	for _, window := range []int{0, 3} {
		fast := newOffloadSide(t, Config{}, 5)
		slow := newOffloadSide(t, Config{}, 5)
		for id := pagemem.PageID(0); int(id) < slow.c.space.NumPages(); id += 3 {
			fast.c.space.ClearAccessed(id)
			slow.c.space.ClearAccessed(id)
		}
		rng := rand.New(rand.NewSource(int64(window)))
		for round := 0; round < 40; round++ {
			seg := fast.c.runtimeRange
			if round%2 == 1 {
				seg = fast.c.initRange
			}
			start := seg.Start + pagemem.PageID(rng.Intn(seg.Len()))
			end := min(seg.End, start+pagemem.PageID(1+rng.Intn(140)))
			gf, gr := fast.c.touchRange(seg, start, end, window)
			wf, wr := slow.c.touchRangePerPage(seg, start, end, window)
			if gf != wf || gr != wr {
				t.Fatalf("window %d round %d: faults/readahead %d/%d, want %d/%d", window, round, gf, gr, wf, wr)
			}
			for id := pagemem.PageID(0); int(id) < slow.c.space.NumPages(); id++ {
				a, b := fast.c, slow.c
				if a.space.State(id) != b.space.State(id) || a.space.Accessed(id) != b.space.Accessed(id) ||
					a.lru.GenOf(id) != b.lru.GenOf(id) {
					t.Fatalf("window %d round %d: page %d state/accessed/gen %v/%v/%d, want %v/%v/%d",
						window, round, id, a.space.State(id), a.space.Accessed(id), a.lru.GenOf(id),
						b.space.State(id), b.space.Accessed(id), b.lru.GenOf(id))
				}
			}
			if round%8 == 7 {
				// Offload everything local again so later rounds fault.
				for _, s := range []offloadSide{fast, slow} {
					ms, _ := s.c.space.CollectMasks(nil, pagemem.Range{Start: 0, End: s.c.execRange.Start}, pagemem.Hot, 0)
					for _, m := range ms {
						s.c.space.TransitionMasked(m.Word, m.Mask, pagemem.Hot, pagemem.Remote)
					}
				}
			}
		}
		if fast.c.lru.Promotions() != slow.c.lru.Promotions() {
			t.Fatalf("window %d: promotions %d, want %d", window, fast.c.lru.Promotions(), slow.c.lru.Promotions())
		}
	}
}
