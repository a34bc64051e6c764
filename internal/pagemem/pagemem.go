// Package pagemem models a container's memory at page granularity.
//
// A Space is a growable array of fixed-size pages. Each page carries the
// state the offloading policies act on (inactive / hot / remote / free), the
// lifecycle segment it was allocated in (runtime / init / exec), and an
// access bit, mirroring the page-table Accessed bit that the paper's
// mechanisms (and DAMON/TMO) sample. Aggregate counters are maintained
// incrementally so "how much local memory does this container hold" is O(1).
package pagemem

import (
	"fmt"
	"math/bits"
	"sort"
)

// DefaultPageSize is the page size used throughout the simulation, matching
// the 4 KiB base pages the paper's kernel implementation manages.
const DefaultPageSize = 4096

// PageID indexes a page within a Space.
type PageID int32

// State is the placement/offloading state of an allocated page.
type State uint8

const (
	// Free marks an unallocated (or released) page slot.
	Free State = iota
	// Inactive pages sit in their Pucket's inactive list: allocated but not
	// re-accessed since the last demotion; candidates for offloading.
	Inactive
	// Hot pages live in the shared hot page pool: they were accessed after
	// allocation (or recalled from remote) and are kept local.
	Hot
	// Remote pages have been offloaded to the memory pool; touching one
	// triggers a page fault and a remote fetch.
	Remote
	numStates = iota
)

// String implements fmt.Stringer for diagnostics.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Inactive:
		return "inactive"
	case Hot:
		return "hot"
	case Remote:
		return "remote"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Segment is the container-lifecycle stage a page was allocated in
// (paper §3: runtime, init, and execution segments).
type Segment uint8

const (
	// SegRuntime pages are allocated while the language runtime loads.
	SegRuntime Segment = iota
	// SegInit pages are allocated during user-code initialization.
	SegInit
	// SegExec pages hold per-request temporaries, freed on completion.
	SegExec
	// NumSegments is the number of lifecycle segments.
	NumSegments = iota
)

// String implements fmt.Stringer.
func (s Segment) String() string {
	switch s {
	case SegRuntime:
		return "runtime"
	case SegInit:
		return "init"
	case SegExec:
		return "exec"
	default:
		return fmt.Sprintf("segment(%d)", uint8(s))
	}
}

// Range is a half-open interval of pages [Start, End).
type Range struct {
	Start, End PageID
}

// Words returns the span [w0, w1) of 64-page word indexes r overlaps.
func (r Range) Words() (w0, w1 int) {
	if r.End <= r.Start {
		return 0, 0
	}
	return int(r.Start) / 64, (int(r.End) + 63) / 64
}

// WordMask returns the bits of word w that fall inside r (zero for a word
// outside r.Words()).
func (r Range) WordMask(w int) uint64 {
	if base := w * 64; base >= int(r.End) || base+64 <= int(r.Start) {
		return 0
	}
	return rangeMask(w, int(r.Start), int(r.End))
}

// Len returns the number of pages in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Contains reports whether id falls inside the range.
func (r Range) Contains(id PageID) bool { return id >= r.Start && id < r.End }

// Space is a page-granularity address space for one container. The zero
// value is not usable; construct with NewSpace.
type Space struct {
	pageSize int
	// n is the number of page slots ever allocated.
	n        int
	accessed Bitset
	// stateBits[st] marks every page currently in state st. They are the
	// only record of page state: every allocated page is in exactly one of
	// them, so State reads at most three words, and range scans (victim
	// collection, Pucket occupancy counts) walk words instead of pages.
	stateBits [numStates]Bitset
	// counts[seg][state] tracks pages per segment and state.
	counts [NumSegments][numStates]int
	// segRuns records the contiguous allocation runs sharing a segment (a
	// page's segment is piecewise constant by construction). SegmentOf reads
	// them, and bulk ops split a word at run boundaries to update counters
	// per run part instead of per page. lastSegRun caches the most recent
	// hit.
	segRuns    []segRun
	lastSegRun int
}

// segRun is a maximal range of pages allocated to one segment; its end is
// the next run's start (or the allocated page count for the final run).
type segRun struct {
	start int
	seg   Segment
}

// segRunAt returns the index of the segment run holding page id.
func (s *Space) segRunAt(id int) int {
	i := s.lastSegRun
	if i >= len(s.segRuns) || s.segRuns[i].start > id ||
		(i+1 < len(s.segRuns) && s.segRuns[i+1].start <= id) {
		i = sort.Search(len(s.segRuns), func(j int) bool { return s.segRuns[j].start > id }) - 1
		s.lastSegRun = i
	}
	return i
}

// NewSpace returns an empty address space with the given page size in bytes.
// pageSize must be positive; use DefaultPageSize unless a test needs tiny
// pages.
func NewSpace(pageSize int) *Space {
	if pageSize <= 0 {
		panic("pagemem: page size must be positive")
	}
	return &Space{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// NumPages returns the total number of page slots ever allocated (including
// freed exec pages, whose slots are not reused).
func (s *Space) NumPages() int { return s.n }

// check panics unless id is an allocated page slot. The state bitsets are
// word-granular, so without it an id past NumPages inside the last word
// would quietly read as Free.
func (s *Space) check(id PageID) {
	if uint(id) >= uint(s.n) {
		s.outOfRange(id)
	}
}

func (s *Space) outOfRange(id PageID) {
	panic(fmt.Sprintf("pagemem: page %d out of range [0, %d)", id, s.n))
}

// Alloc appends n pages of the given segment in the Inactive state and
// returns their range. Newly allocated pages carry a set access bit: the
// allocation itself wrote them, exactly as a faulted-in page is young in the
// kernel. It costs O(words): only bitsets and counters grow.
func (s *Space) Alloc(seg Segment, n int) Range {
	if n < 0 {
		panic("pagemem: negative allocation")
	}
	start := s.n
	total := start + n
	if k := len(s.segRuns); n > 0 && (k == 0 || s.segRuns[k-1].seg != seg) {
		s.segRuns = append(s.segRuns, segRun{start: start, seg: seg})
	}
	s.n = total
	// Pre-grow every bitset to the new page count so word reads and
	// hot-path Set/Clear calls never hit the grow check's slow path.
	s.accessed.Grow(total)
	for st := range s.stateBits {
		s.stateBits[st].Grow(total)
	}
	s.accessed.SetRange(start, total)
	s.stateBits[Inactive].SetRange(start, total)
	s.counts[seg][Inactive] += n
	return Range{Start: PageID(start), End: PageID(total)}
}

// AllocBytes allocates enough pages to hold the given byte count, rounding
// up to whole pages.
func (s *Space) AllocBytes(seg Segment, bytes int64) Range {
	if bytes < 0 {
		panic("pagemem: negative byte allocation")
	}
	n := int((bytes + int64(s.pageSize) - 1) / int64(s.pageSize))
	return s.Alloc(seg, n)
}

// clampRange narrows [start, end) to the allocated page span and reports
// whether anything remains.
func (s *Space) clampRange(r Range) (start, end int, ok bool) {
	start, end = int(r.Start), int(r.End)
	if end > s.n {
		end = s.n
	}
	return start, end, end > start
}

// rangeMask returns the bitmask of range bits within word w.
func rangeMask(w, start, end int) uint64 {
	m := ^uint64(0)
	if base := w * 64; base < start {
		m &= ^uint64(0) << (uint(start) % 64)
	}
	if end < (w+1)*64 {
		m &= ^uint64(0) >> (64 - uint(end)%64)
	}
	return m
}

// FreeRange releases every non-free page in r and returns how many it
// released. Used when exec-segment temporaries are reclaimed at request
// completion. Already-free pages are skipped word-at-a-time, so re-freeing a
// mostly-free range is cheap.
func (s *Space) FreeRange(r Range) int {
	start, end, ok := s.clampRange(r)
	if !ok {
		return 0
	}
	freed := 0
	for w := start / 64; w < (end+63)/64; w++ {
		mask := rangeMask(w, start, end)
		for st := Inactive; st < numStates; st++ {
			word := s.stateBits[st].words[w] & mask
			if word == 0 {
				continue
			}
			s.stateBits[st].words[w] &^= word
			s.stateBits[Free].words[w] |= word
			s.bulkRestate(w, word, st, Free)
			freed += bits.OnesCount64(word)
		}
		s.accessed.words[w] &^= mask
	}
	return freed
}

// bulkRestate moves the segment counters of the pages of word (a bitmask
// within word index w) from state st to state to; the caller has already
// moved their state bits. The word splits at segment-run boundaries and each
// part moves by popcount, so a word inside one segment costs one step.
func (s *Space) bulkRestate(w int, word uint64, st, to State) {
	base := w * 64
	for word != 0 {
		i := s.segRunAt(base + bits.TrailingZeros64(word))
		part := word
		if i+1 < len(s.segRuns) && s.segRuns[i+1].start-base < 64 {
			part &= ^uint64(0) >> (64 - uint(s.segRuns[i+1].start-base))
		}
		k := bits.OnesCount64(part)
		seg := s.segRuns[i].seg
		s.counts[seg][st] -= k
		s.counts[seg][to] += k
		word &^= part
	}
}

// ReuseRange reactivates every Free page in r back to Inactive with a set
// access bit — the allocation path for exec-segment temporaries, which reuse
// the same page slots on every request instead of growing the space.
func (s *Space) ReuseRange(r Range) {
	start, end, ok := s.clampRange(r)
	if !ok {
		return
	}
	for w := start / 64; w < (end+63)/64; w++ {
		word := s.stateBits[Free].words[w] & rangeMask(w, start, end)
		if word == 0 {
			continue
		}
		s.stateBits[Free].words[w] &^= word
		s.stateBits[Inactive].words[w] |= word
		s.accessed.words[w] |= word
		s.bulkRestate(w, word, Free, Inactive)
	}
}

// State returns the state of page id, read from the state bitsets. It panics
// for an id outside [0, NumPages()).
func (s *Space) State(id PageID) State {
	s.check(id)
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	for st := Inactive; st < numStates; st++ {
		if s.stateBits[st].words[w]&bit != 0 {
			return st
		}
	}
	return Free
}

// SegmentOf returns the lifecycle segment page id was allocated in. It
// panics for an id outside [0, NumPages()).
func (s *Space) SegmentOf(id PageID) Segment {
	s.check(id)
	return s.segRuns[s.segRunAt(int(id))].seg
}

// SetState transitions page id to st, keeping the aggregate counters
// consistent. Transitioning a Free page is a programming error.
func (s *Space) SetState(id PageID, st State) {
	old := s.State(id)
	if old == st {
		return
	}
	if old == Free {
		panic(fmt.Sprintf("pagemem: page %d is free; Alloc before SetState", id))
	}
	seg := s.SegmentOf(id)
	s.counts[seg][old]--
	s.counts[seg][st]++
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	s.stateBits[old].words[w] &^= bit
	s.stateBits[st].words[w] |= bit
}

// PageMask is a set of pages inside one 64-page word: page Word*64+i belongs
// to it when bit i of Mask is set. Offload victims travel between layers as
// a []PageMask (16 bytes per word instead of 4 per page); the pages it names
// are the entries' pages in list order, ascending within an entry. A list
// built page by page starts a new entry whenever the next page does not lie
// above the last entry's highest page in the same word, so it always
// expands to exactly the page sequence that built it.
type PageMask struct {
	Word int
	Mask uint64
}

// Base returns the first page of the entry's word.
func (m PageMask) Base() PageID { return PageID(m.Word * 64) }

// CountMasks returns the number of pages in a mask list.
func CountMasks(ms []PageMask) int {
	n := 0
	for _, m := range ms {
		n += bits.OnesCount64(m.Mask)
	}
	return n
}

// LowBits returns the n lowest set bits of x (all of x when it has no more
// than n): the first n pages of a mask in list order.
func LowBits(x uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if bits.OnesCount64(x) <= n {
		return x
	}
	rest := x
	for ; n > 0; n-- {
		rest &= rest - 1
	}
	return x &^ rest
}

// CollectMasks appends the pages of state st inside r to dst, one entry per
// non-empty word in ascending order, and returns the list with the number of
// pages appended. max > 0 caps the pages appended, keeping the lowest bits
// of the last word. It is the word-at-a-time victim scan behind offload
// collection.
func (s *Space) CollectMasks(dst []PageMask, r Range, st State, max int) ([]PageMask, int) {
	start, end, ok := s.clampRange(r)
	if !ok {
		return dst, 0
	}
	n := 0
	words := s.stateBits[st].words
	for w := start / 64; w < (end+63)/64; w++ {
		m := words[w] & rangeMask(w, start, end)
		if m == 0 {
			continue
		}
		if max > 0 {
			m = LowBits(m, max-n)
		}
		dst = append(dst, PageMask{Word: w, Mask: m})
		if n += bits.OnesCount64(m); max > 0 && n >= max {
			break
		}
	}
	return dst, n
}

// CollectLocalMasks appends every locally resident (Inactive or Hot) page
// inside r to dst, one entry per non-empty word in ascending order: the
// victims of a pageout that evicts a whole range.
func (s *Space) CollectLocalMasks(dst []PageMask, r Range) []PageMask {
	start, end, ok := s.clampRange(r)
	if !ok {
		return dst
	}
	for w := start / 64; w < (end+63)/64; w++ {
		if m := s.LocalWord(w) & rangeMask(w, start, end); m != 0 {
			dst = append(dst, PageMask{Word: w, Mask: m})
		}
	}
	return dst
}

// Touch sets the access bit of page id and returns its current state so the
// caller can decide whether a promotion or a remote fault is needed. It
// panics for an id outside [0, NumPages()).
func (s *Space) Touch(id PageID) State {
	s.check(id)
	s.accessed.words[int(id)/64] |= 1 << (uint(id) % 64)
	return s.State(id)
}

// TouchRange sets the access bits of every page in r in bulk — the fast path
// for request spans, which touch contiguous page runs.
func (s *Space) TouchRange(r Range) {
	if start, end, ok := s.clampRange(r); ok {
		s.accessed.SetRange(start, end)
	}
}

// StateWord returns the 64-page occupancy mask of state st covering pages
// [w*64, w*64+64). Together with TransitionMasked it lets hot loops (the
// request touch path) move whole words of pages without per-page calls.
func (s *Space) StateWord(w int, st State) uint64 { return s.stateBits[st].word(w) }

// LocalWord returns the 64-page mask of locally resident (Inactive or Hot)
// pages in word w — the pages an offload may take.
func (s *Space) LocalWord(w int) uint64 {
	return s.stateBits[Inactive].word(w) | s.stateBits[Hot].word(w)
}

// TransitionMasked moves every page in the 64-page word w whose mask bit is
// set from state `from` to state `to`. Every masked page must currently be in
// state `from` (callers derive mask from StateWord). Free is not a valid
// endpoint. Counters move by popcount per segment run the word overlaps.
func (s *Space) TransitionMasked(w int, mask uint64, from, to State) {
	if mask == 0 {
		return
	}
	if from == Free || to == Free {
		panic("pagemem: TransitionMasked cannot move pages into or out of Free")
	}
	s.stateBits[from].words[w] &^= mask
	s.stateBits[to].words[w] |= mask
	s.bulkRestate(w, mask, from, to)
}

// Accessed reports the access bit of page id without clearing it.
func (s *Space) Accessed(id PageID) bool { return s.accessed.Get(int(id)) }

// ClearAccessed clears the access bit of page id.
func (s *Space) ClearAccessed(id PageID) { s.accessed.Clear(int(id)) }

// AccessedWord returns the access bits of pages [w*64, w*64+64).
func (s *Space) AccessedWord(w int) uint64 { return s.accessed.word(w) }

// ClearAccessedWord clears the access bits of the pages in the 64-page word
// w whose mask bit is set — the word-at-a-time form of ClearAccessed.
func (s *Space) ClearAccessedWord(w int, mask uint64) { s.accessed.AndNotWordAt(w, mask) }

// ScanAndClear invokes fn for every page in r whose access bit is set, then
// clears the bit — the moral equivalent of a page-table Accessed-bit scan.
// Zero words are skipped whole, so scanning a cold container is cheap.
func (s *Space) ScanAndClear(r Range, fn func(PageID)) {
	if fn != nil {
		s.accessed.ForEachSet(int(r.Start), int(r.End), func(i int) { fn(PageID(i)) })
	}
	s.accessed.ClearRange(int(r.Start), int(r.End))
}

// CountAccessed tallies set access bits in r without clearing them.
func (s *Space) CountAccessed(r Range) int {
	return s.accessed.CountRange(int(r.Start), int(r.End))
}

// CountInRange tallies pages of the given state inside r by popcounting the
// state's bitset, so per-request occupancy polls cost O(words).
func (s *Space) CountInRange(r Range, st State) int {
	return s.stateBits[st].CountRange(int(r.Start), int(r.End))
}

// Count returns the number of pages in the given segment and state.
func (s *Space) Count(seg Segment, st State) int { return s.counts[seg][st] }

// CountState sums a state's pages across all segments.
func (s *Space) CountState(st State) int {
	n := 0
	for seg := 0; seg < NumSegments; seg++ {
		n += s.counts[seg][st]
	}
	return n
}

// LocalBytes reports resident local memory: inactive plus hot pages.
func (s *Space) LocalBytes() int64 {
	return int64(s.CountState(Inactive)+s.CountState(Hot)) * int64(s.pageSize)
}

// RemoteBytes reports memory currently offloaded to the pool.
func (s *Space) RemoteBytes() int64 {
	return int64(s.CountState(Remote)) * int64(s.pageSize)
}

// TotalBytes reports all allocated (non-free) memory, local plus remote.
func (s *Space) TotalBytes() int64 { return s.LocalBytes() + s.RemoteBytes() }

// BytesOf converts a page count to bytes at this space's page size.
func (s *Space) BytesOf(pages int) int64 { return int64(pages) * int64(s.pageSize) }

// PagesOf converts a byte count to pages, rounding up.
func (s *Space) PagesOf(bytes int64) int {
	return int((bytes + int64(s.pageSize) - 1) / int64(s.pageSize))
}
