package core

import (
	"math/rand"
	"reflect"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// sparseTestLengths draws a backlog snapshot with roughly the given fraction
// of eligible pairs holding positive backlog.
func sparseTestLengths(rng *rand.Rand, c *model.Cluster, density float64) queue.Lengths {
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for j := range q.Central {
		q.Central[j] = float64(rng.Intn(30))
	}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
		for j := range q.Local[i] {
			if rng.Float64() < density {
				q.Local[i][j] = float64(1 + rng.Intn(25))
			}
		}
	}
	return q
}

// TestSparseCoefficientsMatchDense is the dense == sparse coefficient
// property: for random backlogs — including the all-zero and all-active
// extremes — every compact coefficient must equal its dense counterpart, and
// every eligible pair left out of the index must be one the dense build gives
// zero backlog.
func TestSparseCoefficientsMatchDense(t *testing.T) {
	c := refCluster(t)
	cfg := Config{V: 7.5, Beta: 100}
	rng := rand.New(rand.NewSource(41))
	densities := []float64{0, 0.1, 0.5, 1}
	for trial := 0; trial < 40; trial++ {
		density := densities[trial%len(densities)]
		st := stateWith(c, 50, []float64{0.3, 0.5, 0.7})
		st.Price[trial%c.N()] = 0.2 + rng.Float64()
		q := sparseTestLengths(rng, c, density)

		sp := newSparseSlot(c)
		sp.refresh(cfg, st, q, nil)
		cH, cB, hCap := SlotCoefficients(c, cfg, st, q)

		seen := make(map[int]bool)
		for i := 0; i < c.N(); i++ {
			for ct := sp.siteOff[i]; ct < sp.siteOff[i+1]; ct++ {
				j := sp.pairJ[ct]
				idx := sp.denseIdx[ct]
				seen[idx] = true
				if idx != i*c.J()+j {
					t.Fatalf("trial %d: compact %d maps to dense %d, want %d", trial, ct, idx, i*c.J()+j)
				}
				if sp.linear[ct] != cH[i][j] {
					t.Errorf("trial %d site %d job %d: compact cH %v, dense %v", trial, i, j, sp.linear[ct], cH[i][j])
				}
				if sp.hCap[ct] != hCap[i][j] {
					t.Errorf("trial %d site %d job %d: compact hCap %v, dense %v", trial, i, j, sp.hCap[ct], hCap[i][j])
				}
				if sp.account[ct] != c.JobTypes[j].Account || sp.demand[ct] != c.JobTypes[j].Demand {
					t.Errorf("trial %d site %d job %d: wrong account/demand maps", trial, i, j)
				}
			}
			for k := 0; k < c.K(i); k++ {
				if sp.linear[sp.bOffC[i]+k] != cB[i][k] {
					t.Errorf("trial %d site %d server %d: compact cB %v, dense %v", trial, i, k, sp.linear[sp.bOffC[i]+k], cB[i][k])
				}
			}
			// Pairs outside the index must carry no dense signal: zero backlog
			// (so cH = 0 and hCap = 0) or ineligibility (hCap = 0 by
			// construction).
			for j := 0; j < c.J(); j++ {
				idx := i*c.J() + j
				if seen[idx] {
					continue
				}
				if sp.eligible[idx] && q.Local[i][j] != 0 {
					t.Errorf("trial %d site %d job %d: backlogged eligible pair missing from index", trial, i, j)
				}
				if hCap[i][j] != 0 && !sp.eligible[idx] {
					t.Errorf("trial %d site %d job %d: ineligible pair has dense cap %v", trial, i, j, hCap[i][j])
				}
			}
		}
		wantH := 0
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				if sp.eligible[i*c.J()+j] && q.Local[i][j] > 0 {
					wantH++
				}
			}
		}
		if sp.nH != wantH {
			t.Errorf("trial %d: index has %d active pairs, want %d", trial, sp.nH, wantH)
		}
		if density == 0 && sp.nH != 0 {
			t.Errorf("trial %d: all-zero backlog produced %d active pairs", trial, sp.nH)
		}
	}
}

// decisionsEqual compares two actions exactly.
func decisionsEqual(t *testing.T, slot int, label string, a, b *model.Action) {
	t.Helper()
	for i := range a.Process {
		for j := range a.Process[i] {
			if a.Process[i][j] != b.Process[i][j] {
				t.Fatalf("slot %d %s: process[%d][%d] = %v vs %v", slot, label, i, j, a.Process[i][j], b.Process[i][j])
			}
		}
		for k := range a.Busy[i] {
			if a.Busy[i][k] != b.Busy[i][k] {
				t.Fatalf("slot %d %s: busy[%d][%d] = %v vs %v", slot, label, i, k, a.Busy[i][k], b.Busy[i][k])
			}
		}
		for j := range a.Route[i] {
			if a.Route[i][j] != b.Route[i][j] {
				t.Fatalf("slot %d %s: route[%d][%d] = %d vs %d", slot, label, i, j, a.Route[i][j], b.Route[i][j])
			}
		}
	}
}

// TestSparseDecideBitIdentical drives the dense reference scheduler and the
// default (sparse) scheduler through the same evolving slot sequence and
// requires byte-identical decisions and telemetry events — the bit-identity
// argument of the sparse representation, pinned for the linear path, the
// convex path, and the warm-started convex path.
func TestSparseDecideBitIdentical(t *testing.T) {
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 30)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"beta=0", Config{V: 7.5}},
		{"beta=0-warm", Config{V: 7.5, WarmStart: true}},
		{"beta=100", Config{V: 7.5, Beta: 100}},
		{"beta=100-warm", Config{V: 7.5, Beta: 100, WarmStart: true}},
		{"beta=100-away", Config{V: 7.5, Beta: 100, FW: awayFWOptions()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var denseEvents, sparseEvents []telemetry.SlotEvent
			cfg := tc.cfg
			cfg.Observer = telemetry.ObserverFunc(func(ev telemetry.SlotEvent) { denseEvents = append(denseEvents, ev) })
			dense, err := newDense(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Observer = telemetry.ObserverFunc(func(ev telemetry.SlotEvent) { sparseEvents = append(sparseEvents, ev) })
			sparse, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dense.ws.sparse != nil || sparse.ws.sparse == nil {
				t.Fatal("schedulers did not take the dense and sparse paths")
			}
			for s := range states {
				da, err := dense.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				sa, err := sparse.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				decisionsEqual(t, s, tc.name, da, sa)
			}
			if !reflect.DeepEqual(denseEvents, sparseEvents) {
				t.Fatal("telemetry events differ between the dense and sparse paths")
			}
		})
	}
}

// TestSolverPathSelection pins how New picks the slot solver from its input:
// clusters with auxiliary resources and non-linear tariffs take the dense
// path, every other cluster takes the sparse path, at any beta.
func TestSolverPathSelection(t *testing.T) {
	quadratic, err := tariff.NewQuadratic(60)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := tariff.NewTiered([]float64{40}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := model.NewReferenceCluster()
	cases := []struct {
		name   string
		c      *model.Cluster
		trf    tariff.Tariff
		sparse bool
	}{
		{"reference", ref, nil, true},
		{"linear-tariff", ref, tariff.Linear{}, true},
		{"aux-resources", auxCluster(), nil, false},
		{"quadratic-tariff", ref, quadratic, false},
		{"tiered-tariff", ref, tiered, false},
	}
	for _, tc := range cases {
		for _, beta := range []float64{0, 100} {
			g, err := New(tc.c, Config{V: 7.5, Beta: beta, Tariff: tc.trf})
			if err != nil {
				t.Fatal(err)
			}
			if got := g.ws.sparse != nil; got != tc.sparse {
				t.Errorf("%s beta=%g: sparse path %v, want %v", tc.name, beta, got, tc.sparse)
			}
		}
	}
}

func awayFWOptions() (o solve.FWOptions) {
	o.MaxIters = 150
	o.AwaySteps = true
	return o
}

// TestSparseRefreshIncremental pins the refresh machinery: with stable active
// membership, slot-to-slot input drift lands on the in-place path (row
// refreshes, no rebuilds); a membership flip forces a rebuild.
func TestSparseRefreshIncremental(t *testing.T) {
	c := refCluster(t)
	cfg := Config{V: 7.5, Beta: 100}
	st := stateWith(c, 50, []float64{0.3, 0.5, 0.7})
	rng := rand.New(rand.NewSource(7))
	q := sparseTestLengths(rng, c, 1) // fully active: value drift cannot flip membership

	sp := newSparseSlot(c)
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 1 || sp.rowRefreshes != 0 {
		t.Fatalf("first refresh: rebuilds=%d rowRefreshes=%d, want 1/0", sp.rebuilds, sp.rowRefreshes)
	}

	// Backlog and price drift with unchanged membership: in-place refresh.
	q.Local[1][0] += 3
	st.Price[2] = 0.9
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 1 {
		t.Errorf("value drift triggered a rebuild (rebuilds=%d)", sp.rebuilds)
	}
	if sp.rowRefreshes == 0 {
		t.Error("value drift refreshed no rows")
	}
	if sp.linear[sp.siteOff[1]] != -q.Local[1][0] {
		t.Errorf("refreshed cH = %v, want %v", sp.linear[sp.siteOff[1]], -q.Local[1][0])
	}

	// Unchanged inputs: no work at all.
	rows := sp.rowRefreshes
	sp.refresh(cfg, st, q, nil)
	if sp.rowRefreshes != rows || sp.rebuilds != 1 {
		t.Error("no-op refresh did work")
	}

	// Draining a queue flips membership: rebuild.
	q.Local[0][1] = 0
	sp.refresh(cfg, st, q, nil)
	if sp.rebuilds != 2 {
		t.Errorf("membership flip did not rebuild (rebuilds=%d)", sp.rebuilds)
	}
}

// FuzzSparseRefresh drives a sparseSlot through fuzzer-chosen backlog and
// price mutations, refreshing incrementally after each, and requires the
// refreshed representation to equal a from-scratch rebuild on the final
// inputs — the incremental path must be indistinguishable from the rebuild
// path.
func FuzzSparseRefresh(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(9))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(9000), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, mutations uint8) {
		c := model.NewReferenceCluster()
		if err := c.Validate(); err != nil {
			t.Skip()
		}
		cfg := Config{V: 7.5, Beta: 100}
		rng := rand.New(rand.NewSource(seed))
		st := stateWith(c, 50, []float64{0.3, 0.5, 0.7})
		q := sparseTestLengths(rng, c, 0.4)

		inc := newSparseSlot(c)
		inc.refresh(cfg, st, q, nil)
		for m := 0; m < int(mutations); m++ {
			switch rng.Intn(4) {
			case 0: // backlog drift on one pair
				q.Local[rng.Intn(c.N())][rng.Intn(c.J())] = float64(rng.Intn(30))
			case 1: // price drift on one site
				st.Price[rng.Intn(c.N())] = 0.1 + rng.Float64()
			case 2: // drain a whole site
				site := rng.Intn(c.N())
				for j := range q.Local[site] {
					q.Local[site][j] = 0
				}
			case 3: // no-op slot
			}
			inc.refresh(cfg, st, q, nil)
		}

		fresh := newSparseSlot(c)
		fresh.refresh(cfg, st, q, nil)

		if inc.nH != fresh.nH || inc.total != fresh.total {
			t.Fatalf("index shape diverged: nH %d/%d total %d/%d", inc.nH, fresh.nH, inc.total, fresh.total)
		}
		for ct := 0; ct < inc.nH; ct++ {
			if inc.denseIdx[ct] != fresh.denseIdx[ct] || inc.pairJ[ct] != fresh.pairJ[ct] {
				t.Fatalf("compact %d: index diverged (%d/%d vs %d/%d)",
					ct, inc.denseIdx[ct], inc.pairJ[ct], fresh.denseIdx[ct], fresh.pairJ[ct])
			}
			if inc.hCap[ct] != fresh.hCap[ct] {
				t.Fatalf("compact %d: hCap %v vs %v", ct, inc.hCap[ct], fresh.hCap[ct])
			}
		}
		for ct := range fresh.linear {
			if inc.linear[ct] != fresh.linear[ct] {
				t.Fatalf("compact %d: linear %v vs %v", ct, inc.linear[ct], fresh.linear[ct])
			}
		}
		for idx := range fresh.active {
			if inc.active[idx] != fresh.active[idx] {
				t.Fatalf("dense %d: active %v vs %v", idx, inc.active[idx], fresh.active[idx])
			}
		}
	})
}
