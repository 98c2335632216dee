package core

import "testing"

// TestMergeEntry pins the double-write resolution rules serial
// branch and bound relies on: a node cut under one budget is
// re-expanded when a caller arrives with a looser one, and that rewrite
// must replace the old marker without ever displacing an exact entry.
func TestMergeEntry(t *testing.T) {
	exact := entry{cost: 3, choice: choiceB}
	weak := entry{cost: 5, choice: choicePruned}
	strong := entry{cost: 9, choice: choicePruned}
	if got := mergeEntry(exact, strong); got != exact {
		t.Fatalf("marker displaced exact entry: %+v", got)
	}
	if got := mergeEntry(weak, exact); got != exact {
		t.Fatalf("exact did not displace marker: %+v", got)
	}
	if got := mergeEntry(weak, strong); got != strong {
		t.Fatalf("larger marker budget lost: %+v", got)
	}
	if got := mergeEntry(strong, weak); got != strong {
		t.Fatalf("smaller marker budget won: %+v", got)
	}
}

// meanDisplacement walks the table's slots and returns the mean
// distance, in probes, of every stored key from its home slot.
func meanDisplacement(m *memoTable) float64 {
	total := uint64(0)
	for i, s := range m.slots {
		if s.key != 0 {
			total += (uint64(i) - m.home(s.key)) & m.mask
		}
	}
	return float64(total) / float64(m.entries())
}

// TestMemoStridedKeysSpread fills the table with node keys whose
// encoding strides carry a large power of two, the shapes of a dense
// single-machine fragment with G+1 = 1024 and of a p = 3 fragment with
// n+1 = 1024. Keys that differ only in the outer fields then agree in
// every low bit of the index, so a home slot taken from the low bits of
// the hash product piles them into probe runs hundreds of slots long;
// the top bits must keep the mean displacement near the linear-probing
// expectation at 3/4 load.
func TestMemoStridedKeysSpread(t *testing.T) {
	cases := []struct {
		name    string
		g, n, p int
		fill    func(put func(node))
	}{
		{"G+1=1024 p=1", 1023, 1000, 1, func(put func(node)) {
			// Sub-intervals ending at a handful of right endpoints, the
			// right children a single-machine recursion keeps revisiting.
			for i1 := 0; i1 <= 1023; i1++ {
				for _, i2 := range [...]int{1023, 900, 512} {
					if i1 > i2 {
						continue
					}
					for k := 0; k < 4; k++ {
						put(node{i1: i1, i2: i2, k: k, l1: k & 1, l2: i1 & 1, c2: (i1 >> 1) & 1})
					}
				}
			}
		}},
		{"n+1=1024 p=3", 299, 1023, 3, func(put func(node)) {
			for i1 := 0; i1 < 300; i1 += 3 {
				for i2 := i1; i2 < 300; i2 += 7 {
					for k := 0; k < 2; k++ {
						put(node{i1: i1, i2: i2, k: k, l1: i1 & 3, l2: i2 & 3, c2: k})
					}
				}
			}
		}},
	}
	for _, c := range cases {
		m := newMemoTable(c.g, c.n, c.p)
		if m.slots == nil {
			t.Fatalf("%s: index space unexpectedly overflowed", c.name)
		}
		c.fill(func(nd node) { m.put(nd, entry{cost: 1, choice: choiceEmpty}) })
		if m.entries() < 1000 {
			t.Fatalf("%s: only %d entries stored", c.name, m.entries())
		}
		if d := meanDisplacement(m); d > 4 {
			t.Errorf("%s: mean displacement %.1f slots over %d entries in %d slots, want ≤ 4",
				c.name, d, m.entries(), len(m.slots))
		}
	}
}
