package experiments

import "testing"

func TestNewSolverScaleInstanceShape(t *testing.T) {
	in, err := NewSolverScaleInstance(2012, 40, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Cluster.N() != 40 || in.Cluster.J() != 20 {
		t.Fatalf("instance shape %dx%d, want 40x20", in.Cluster.N(), in.Cluster.J())
	}
	want := 0.1 * 40 * 20
	if f := float64(in.ActivePairs); f < want/2 || f > want*2 {
		t.Errorf("active pairs %d, want around %.0f", in.ActivePairs, want)
	}
	if _, err := NewSolverScaleInstance(1, 0, 5, 0.1); err == nil {
		t.Error("zero-site instance accepted")
	}
	if _, err := NewSolverScaleInstance(1, 5, 5, 1.5); err == nil {
		t.Error("density > 1 accepted")
	}

	// Mutation drifts values but preserves the active-pair set.
	active := func() int {
		n := 0
		for i := range in.Lengths.Local {
			for j := range in.Lengths.Local[i] {
				if in.Lengths.Local[i][j] > 0 {
					n++
				}
			}
		}
		return n
	}
	before := active()
	for s := 0; s < 10; s++ {
		in.Mutate()
	}
	if after := active(); after != before {
		t.Errorf("mutation changed active pairs: %d -> %d", before, after)
	}
}
