package serve

import (
	"sort"
	"testing"

	"repro/internal/model"
)

// TestBuildPlanEntries pins the serving index against a direct reading
// of the instance: every user's entries in (time, item) order with the
// instance's primitive q, 0 for a triple that is no candidate, on a
// strategy mixing candidates of several users with non-candidates.
func TestBuildPlanEntries(t *testing.T) {
	in := testInstance(t, 12, 6, 3, 2, 29)
	s := model.NewStrategy()
	for u := 0; u < in.NumUsers; u += 2 {
		for k, c := range in.UserCandidates(model.UserID(u)) {
			if k%2 == 0 {
				s.Add(c.Triple)
			}
		}
		for i := 0; i < in.NumItems(); i++ {
			if z := (model.Triple{U: model.UserID(u), I: model.ItemID(i), T: 2}); in.Q(z.U, z.I, z.T) == 0 {
				s.Add(z)
				break
			}
		}
	}
	p := buildPlan(in, s, 1, 1, 0)
	want := make([][]planEntry, in.NumUsers)
	for _, z := range s.Triples() {
		want[z.U] = append(want[z.U], planEntry{
			t: z.T, item: z.I, class: in.Class(z.I), beta: in.Beta(z.I),
			q: in.Q(z.U, z.I, z.T), price: in.Price(z.I, z.T),
		})
	}
	nonCand := 0
	for u, es := range want {
		sort.Slice(es, func(a, b int) bool {
			if es[a].t != es[b].t {
				return es[a].t < es[b].t
			}
			return es[a].item < es[b].item
		})
		got := p.perUser[u]
		if len(got) != len(es) {
			t.Fatalf("user %d: %d entries, want %d", u, len(got), len(es))
		}
		for k := range es {
			if got[k] != es[k] {
				t.Fatalf("user %d entry %d: %+v, want %+v", u, k, got[k], es[k])
			}
			if es[k].q == 0 {
				nonCand++
			}
		}
	}
	if nonCand == 0 {
		t.Fatal("fixture has no non-candidate triple")
	}
}
