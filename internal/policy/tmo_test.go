package policy

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/simtime"
)

// stepPerPage is the page-at-a-time TMO step that the word-mask step
// replaced, kept as its reference: it walks the local pages of the runtime
// range, then the init range, clearing the access bits of young pages and
// collecting cold ones until the budget is spent.
func (c *tmoContainer) stepPerPage(e *simtime.Engine) {
	if c.view.StallFraction() > c.cfg.StallThreshold {
		return
	}
	s := c.view.Space()
	c.carry += int64(float64(s.TotalBytes()) * c.cfg.StepFraction)
	pageBytes := int64(s.PageSize())
	budget := int(c.carry / pageBytes)
	if budget <= 0 {
		return
	}
	c.carry -= int64(budget) * pageBytes
	var victims []pagemem.PageMask
	n := 0
	for _, r := range []pagemem.Range{c.view.RuntimeRange(), c.view.InitRange()} {
		for id := r.Start; id < r.End && n < budget; id++ {
			if st := s.State(id); st != pagemem.Inactive && st != pagemem.Hot {
				continue
			}
			if s.Accessed(id) {
				s.ClearAccessed(id)
				continue
			}
			victims = append(victims, pagemem.PageMask{Word: int(id) / 64, Mask: 1 << (uint(id) % 64)})
			n++
		}
	}
	if n > 0 {
		c.view.OffloadPages(e, victims)
	}
}

// TestTMOStepMatchesPerPage runs the word-mask TMO step and the per-page
// reference side by side on twin containers whose runtime/init boundary
// falls inside a word, with mixed page states and access bits, over steps
// whose budgets end mid-word, span several words, and exceed the local
// set. Victims, page states and access bits must agree after every step.
func TestTMOStepMatchesPerPage(t *testing.T) {
	build := func(seed int64) (*fakeView, *tmoContainer) {
		v := newFakeView(300, 450)
		rng := rand.New(rand.NewSource(seed))
		for id := pagemem.PageID(0); int(id) < v.space.NumPages(); id++ {
			switch rng.Intn(4) {
			case 0:
				v.space.SetState(id, pagemem.Hot)
			case 1:
				v.space.SetState(id, pagemem.Remote)
			}
			if rng.Intn(3) == 0 {
				v.space.ClearAccessed(id)
			}
		}
		return v, &tmoContainer{cfg: TMOConfig{}.withDefaults(), view: v}
	}
	e := simtime.NewEngine()
	for seed := int64(0); seed < 4; seed++ {
		fv, fast := build(seed)
		sv, slow := build(seed)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 20; step++ {
			// Budgets from a few pages to more than the whole space.
			frac := []float64{0.004, 0.03, 0.2, 1.5}[rng.Intn(4)]
			fast.cfg.StepFraction, slow.cfg.StepFraction = frac, frac
			fast.step(e)
			slow.stepPerPage(e)
			if !reflect.DeepEqual(fv.offloaded, sv.offloaded) {
				t.Fatalf("seed %d step %d: offloaded %v, want %v", seed, step, fv.offloaded, sv.offloaded)
			}
			for id := pagemem.PageID(0); int(id) < sv.space.NumPages(); id++ {
				if fv.space.State(id) != sv.space.State(id) || fv.space.Accessed(id) != sv.space.Accessed(id) {
					t.Fatalf("seed %d step %d: page %d state/accessed %v/%v, want %v/%v", seed, step, id,
						fv.space.State(id), fv.space.Accessed(id), sv.space.State(id), sv.space.Accessed(id))
				}
			}
			if step%3 == 2 {
				// Re-touch a random stretch on both sides so later steps
				// see young pages again.
				lo := pagemem.PageID(rng.Intn(sv.space.NumPages()))
				for id := lo; id < lo+100 && int(id) < sv.space.NumPages(); id++ {
					fv.space.Touch(id)
					sv.space.Touch(id)
				}
			}
		}
	}
}
