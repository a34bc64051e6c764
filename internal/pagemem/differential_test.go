package pagemem

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// naiveSpace is the obviously-correct model of Space: plain slices, no
// bitsets, no incremental counters — every query is an O(pages) rescan. The
// differential drivers below replay one operation script through both and
// fail on any observable divergence, so the word-at-a-time scan paths
// (ForEachSet unions, popcounts, range clears) are checked against
// per-page semantics.
type naiveSpace struct {
	pageSize int
	state    []State
	seg      []Segment
	accessed []bool
}

func (n *naiveSpace) alloc(seg Segment, count int) {
	for i := 0; i < count; i++ {
		n.state = append(n.state, Inactive)
		n.seg = append(n.seg, seg)
		n.accessed = append(n.accessed, true)
	}
}

func (n *naiveSpace) freeRange(r Range) int {
	freed := 0
	for id := r.Start; id < r.End; id++ {
		if n.state[id] != Free {
			freed++
		}
		n.state[id] = Free
		n.accessed[id] = false
	}
	return freed
}

func (n *naiveSpace) reuseRange(r Range) {
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == Free {
			n.state[id] = Inactive
			n.accessed[id] = true
		}
	}
}

func (n *naiveSpace) transitionRange(r Range, from, to State) int {
	moved := 0
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == from {
			n.state[id] = to
			moved++
		}
	}
	return moved
}

func (n *naiveSpace) scanAndClear(r Range) []PageID {
	var hit []PageID
	for id := r.Start; id < r.End; id++ {
		if n.accessed[id] {
			hit = append(hit, id)
			n.accessed[id] = false
		}
	}
	return hit
}

func (n *naiveSpace) countInRange(r Range, st State) int {
	c := 0
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == st {
			c++
		}
	}
	return c
}

func (n *naiveSpace) count(seg Segment, st State) int {
	c := 0
	for id := range n.state {
		if n.seg[id] == seg && n.state[id] == st {
			c++
		}
	}
	return c
}

func (n *naiveSpace) collectInState(r Range, st State, max int) []PageID {
	var out []PageID
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == st {
			out = append(out, id)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

func (n *naiveSpace) collectLocal(r Range) []PageID {
	var out []PageID
	for id := r.Start; id < r.End; id++ {
		if n.state[id] == Inactive || n.state[id] == Hot {
			out = append(out, id)
		}
	}
	return out
}

// transitionRange moves every page of state from inside r to state to, one
// masked transition per word, and returns the number of pages moved — the
// bulk range sweep built from the word primitives.
func transitionRange(s *Space, r Range, from, to State) int {
	moved := 0
	w0, w1 := r.Words()
	for w := w0; w < w1; w++ {
		m := s.StateWord(w, from) & r.WordMask(w)
		s.TransitionMasked(w, m, from, to)
		moved += bits.OnesCount64(m)
	}
	return moved
}

// expandMasks lists the pages of a mask list in list order.
func expandMasks(ms []PageMask) []PageID {
	var out []PageID
	for _, m := range ms {
		for b := m.Mask; b != 0; b &= b - 1 {
			out = append(out, m.Base()+PageID(bits.TrailingZeros64(b)))
		}
	}
	return out
}

// spacePair drives one script through the bitset-backed Space and the model.
type spacePair struct {
	fast *Space
	slow *naiveSpace
}

func newSpacePair() *spacePair {
	return &spacePair{
		fast: NewSpace(DefaultPageSize),
		slow: &naiveSpace{pageSize: DefaultPageSize},
	}
}

// rangeFrom derives an in-bounds half-open range from two script bytes.
func (p *spacePair) rangeFrom(a, b byte) Range {
	n := PageID(len(p.slow.state))
	if n == 0 {
		return Range{}
	}
	lo := PageID(a) * n / 256
	hi := PageID(b) * (n + 1) / 256
	if hi < lo {
		lo, hi = hi, lo
	}
	return Range{Start: lo, End: hi}
}

// step applies one scripted operation to both spaces. Operands come from an
// arbitrary byte stream so the fuzzer can drive it too.
func (p *spacePair) step(t *testing.T, op, a, b byte) {
	t.Helper()
	n := len(p.slow.state)
	switch op % 10 {
	case 0: // grow
		seg := Segment(int(a) % int(NumSegments))
		count := int(b) % 97
		p.fast.Alloc(seg, count)
		p.slow.alloc(seg, count)
	case 1: // release a range (exec teardown)
		r := p.rangeFrom(a, b)
		if got, want := p.fast.FreeRange(r), p.slow.freeRange(r); got != want {
			t.Fatalf("FreeRange(%v) freed %d pages, want %d", r, got, want)
		}
	case 2: // revive freed slots (exec reuse)
		r := p.rangeFrom(a, b)
		p.fast.ReuseRange(r)
		p.slow.reuseRange(r)
	case 3: // single-page transition
		if n == 0 {
			return
		}
		id := PageID((int(a)<<8 | int(b)) % n)
		st := State(1 + int(a)%3) // Inactive, Hot or Remote — never Free
		if p.slow.state[id] == Free {
			return
		}
		p.fast.SetState(id, st)
		p.slow.state[id] = st
	case 4: // access path
		if n == 0 {
			return
		}
		id := PageID((int(a)<<8 | int(b)) % n)
		got := p.fast.Touch(id)
		p.slow.accessed[id] = true
		if want := p.slow.state[id]; got != want {
			t.Fatalf("Touch(%d) = %v, want %v", id, got, want)
		}
	case 5: // bulk transition (offload/recall sweeps)
		r := p.rangeFrom(a, b)
		from := State(1 + int(a)%3)
		to := State(1 + int(b)%3)
		if from == to {
			return
		}
		got := transitionRange(p.fast, r, from, to)
		if want := p.slow.transitionRange(r, from, to); got != want {
			t.Fatalf("transitionRange(%v, %v->%v) moved %d, want %d", r, from, to, got, want)
		}
	case 6: // accessed-bit scan (DAMON/TMO sampling)
		r := p.rangeFrom(a, b)
		var got []PageID
		p.fast.ScanAndClear(r, func(id PageID) { got = append(got, id) })
		if want := p.slow.scanAndClear(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanAndClear(%v) = %v, want %v", r, got, want)
		}
	case 7: // bounded victim collection
		r := p.rangeFrom(a, b)
		st := State(int(a) % int(numStates))
		// Caps up to two words wide, so truncation lands mid-word in the
		// first or a later non-empty word.
		max := int(b) % 5 * (1 + int(a)/8)
		ms, n := p.fast.CollectMasks(nil, r, st, max)
		got := expandMasks(ms)
		if want := p.slow.collectInState(r, st, max); !reflect.DeepEqual(got, want) || n != len(want) {
			t.Fatalf("CollectMasks(%v, %v, %d) = %v (%d pages), want %v", r, st, max, got, n, want)
		}
		for _, m := range ms {
			if m.Mask == 0 {
				t.Fatalf("CollectMasks(%v, %v, %d) returned an empty entry: %v", r, st, max, ms)
			}
		}
		if got, want := expandMasks(p.fast.CollectLocalMasks(nil, r)), p.slow.collectLocal(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("CollectLocalMasks(%v) = %v, want %v", r, got, want)
		}
	case 8: // masked word transition (touch, rollback and offload flips)
		if n == 0 {
			return
		}
		// Allocations of a few dozen pages per segment put segment run
		// boundaries inside words, so bulkRestate splits the mask at them.
		w := (int(a)<<8 | int(b)) % n / 64
		from := State(1 + int(a)%3)
		to := State(1 + int(b)%3)
		pattern := ^uint64(0)
		if a%4 != 0 {
			pattern = uint64(a)*0x0101_0101_0101_0101 ^ uint64(b)<<17
		}
		var want uint64
		for i := 0; i < 64 && w*64+i < n; i++ {
			if p.slow.state[w*64+i] == from {
				want |= 1 << uint(i)
			}
		}
		if got := p.fast.StateWord(w, from); got != want {
			t.Fatalf("StateWord(%d, %v) = %#x, want %#x", w, from, got, want)
		}
		mask := want & pattern
		p.fast.TransitionMasked(w, mask, from, to)
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				p.slow.state[w*64+i] = to
			}
		}
	case 9: // word-at-a-time young-bit sample and clear (TMO, rollback)
		if n == 0 {
			return
		}
		w := (int(a)<<8 | int(b)) % n / 64
		var want uint64
		for i := 0; i < 64 && w*64+i < n; i++ {
			if p.slow.accessed[w*64+i] {
				want |= 1 << uint(i)
			}
		}
		if got := p.fast.AccessedWord(w); got != want {
			t.Fatalf("AccessedWord(%d) = %#x, want %#x", w, got, want)
		}
		mask := want & (uint64(b)*0x0101_0101_0101_0101 ^ uint64(a)<<29)
		p.fast.ClearAccessedWord(w, mask)
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				p.slow.accessed[w*64+i] = false
			}
		}
	}
}

// check compares the complete observable aggregate state.
func (p *spacePair) check(t *testing.T, step int) {
	t.Helper()
	if got, want := p.fast.NumPages(), len(p.slow.state); got != want {
		t.Fatalf("step %d: NumPages = %d, want %d", step, got, want)
	}
	for st := Free; st < numStates; st++ {
		all := Range{Start: 0, End: PageID(len(p.slow.state))}
		if got, want := p.fast.CountInRange(all, st), p.slow.countInRange(all, st); got != want {
			t.Fatalf("step %d: CountInRange(all, %v) = %d, want %d", step, st, got, want)
		}
		if got, want := p.fast.CountState(st), p.slow.countInRange(all, st); got != want {
			t.Fatalf("step %d: CountState(%v) = %d, want %d", step, st, got, want)
		}
		for seg := Segment(0); seg < NumSegments; seg++ {
			if got, want := p.fast.Count(seg, st), p.slow.count(seg, st); got != want {
				t.Fatalf("step %d: Count(%v, %v) = %d, want %d", step, seg, st, got, want)
			}
		}
	}
	for id := range p.slow.state {
		if got, want := p.fast.State(PageID(id)), p.slow.state[id]; got != want {
			t.Fatalf("step %d: State(%d) = %v, want %v", step, id, got, want)
		}
		if got, want := p.fast.SegmentOf(PageID(id)), p.slow.seg[id]; got != want {
			t.Fatalf("step %d: SegmentOf(%d) = %v, want %v", step, id, got, want)
		}
		if got, want := p.fast.Accessed(PageID(id)), p.slow.accessed[id]; got != want {
			t.Fatalf("step %d: Accessed(%d) = %v, want %v", step, id, got, want)
		}
	}
	all := Range{Start: 0, End: PageID(len(p.slow.state))}
	if got, want := p.fast.CountAccessed(all), len(p.slow.scanAndClearPreview()); got != want {
		t.Fatalf("step %d: CountAccessed = %d, want %d", step, got, want)
	}
}

// scanAndClearPreview returns the accessed set without clearing (model-side
// helper for CountAccessed).
func (n *naiveSpace) scanAndClearPreview() []PageID {
	var hit []PageID
	for id, acc := range n.accessed {
		if acc {
			hit = append(hit, PageID(id))
		}
	}
	return hit
}

// TestSpaceDifferentialRandomOps replays long random scripts through the
// bitset-backed Space and the naive model, comparing complete observable
// state periodically.
func TestSpaceDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newSpacePair()
		for step := 0; step < 500; step++ {
			p.step(t, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if step%11 == 0 || step == 499 {
				p.check(t, step)
			}
		}
		p.check(t, 500)
	}
}

// FuzzSpaceDifferential lets the fuzzer drive arbitrary operation scripts
// through Space and the naive model; any divergence in scan results,
// counters, or per-page state fails.
func FuzzSpaceDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 70, 4, 0, 5, 3, 1, 9, 5, 0, 255, 6, 0, 255, 7, 2, 3})
	f.Add([]byte{0, 2, 96, 1, 20, 200, 2, 10, 128, 0, 1, 33, 5, 64, 250})
	f.Add([]byte{0, 0, 40, 0, 1, 50, 0, 0, 70, 8, 0, 10, 8, 5, 0, 8, 4, 90, 8, 1, 250, 7, 1, 255})
	// CollectMasks truncated mid-word: 3 of word 0's 100 inactive pages,
	// then (after word 0 turns hot) 20 of word 1's inactive pages, then 2
	// hot pages of word 0.
	f.Add([]byte{0, 0, 100, 7, 1, 253, 8, 0, 1, 7, 33, 254, 7, 2, 247})
	// Truncation across segment runs: runtime, init and exec slivers with
	// a freed stretch, collected with caps that end inside the second word.
	f.Add([]byte{0, 0, 30, 0, 1, 45, 0, 2, 60, 1, 100, 140, 7, 65, 252, 7, 97, 254, 7, 121, 251})
	// Young bits cleared a word at a time, then a range scan of the rest.
	f.Add([]byte{0, 0, 100, 9, 0, 3, 9, 1, 77, 4, 0, 9, 6, 0, 128})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*300 {
			script = script[:3*300]
		}
		p := newSpacePair()
		for i := 0; i+2 < len(script); i += 3 {
			p.step(t, script[i], script[i+1], script[i+2])
		}
		p.check(t, len(script))
	})
}
