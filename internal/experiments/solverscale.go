package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"grefar/internal/model"
	"grefar/internal/queue"
)

// solverScaleAccounts is how many organizations share the synthetic
// large-instance cluster: enough that the fairness term couples many job
// types per account, few enough that the per-account sums stay a small
// fraction of the slot cost.
const solverScaleAccounts = 8

// SolverScaleInstance is one synthetic large slot instance: a validated
// cluster of N multi-server data centers and J job types, a price/availability
// snapshot, and a backlog whose active-pair density (fraction of eligible
// (site, job) pairs with positive backlog) is the experiment's sparsity knob.
type SolverScaleInstance struct {
	Cluster *model.Cluster
	State   *model.State
	Lengths queue.Lengths
	// ActivePairs counts (i, j) pairs with positive local backlog.
	ActivePairs int
	rng         *rand.Rand
}

// NewSolverScaleInstance builds a deterministic instance at the requested
// shape. Sites cycle through three efficiency classes (mirroring the hollow
// scale cluster) with two server types each; jobs are eligible everywhere and
// striped across solverScaleAccounts accounts; prices follow a diurnal-ish
// per-site curve. The backlog seeds roughly density*N*J active pairs.
func NewSolverScaleInstance(seed int64, n, j int, density float64) (*SolverScaleInstance, error) {
	if n <= 0 || j <= 0 {
		return nil, fmt.Errorf("solverscale: shape %dx%d is not positive", n, j)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("solverscale: density %g outside [0, 1]", density)
	}
	c := &model.Cluster{
		DataCenters: make([]model.DataCenter, n),
		JobTypes:    make([]model.JobType, j),
		Accounts:    make([]model.Account, solverScaleAccounts),
	}
	everywhere := make([]int, n)
	for i := range everywhere {
		everywhere[i] = i
	}
	for i := range c.DataCenters {
		class := i % 3
		c.DataCenters[i] = model.DataCenter{
			Name: fmt.Sprintf("ss-dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: []float64{2.0, 1.6, 1.2}[class], Power: []float64{1.0, 1.1, 1.3}[class]},
				{Name: "eco", Speed: []float64{1.2, 1.0, 0.8}[class], Power: []float64{0.5, 0.6, 0.7}[class]},
			},
		}
	}
	for t := range c.JobTypes {
		c.JobTypes[t] = model.JobType{
			Name:       fmt.Sprintf("ss-type%d", t),
			Demand:     1.0 + 0.25*float64(t%5),
			Eligible:   everywhere,
			Account:    t % solverScaleAccounts,
			MaxArrival: 4 * n,
		}
	}
	for m := range c.Accounts {
		c.Accounts[m] = model.Account{Name: fmt.Sprintf("org%d", m), Weight: 1 + 0.5*float64(m%3)}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("solverscale: %w", err)
	}

	rng := rand.New(rand.NewSource(seed))
	st := model.NewState(c)
	for i := 0; i < n; i++ {
		st.Avail[i] = []float64{3 + float64(rng.Intn(3)), 2 + float64(rng.Intn(3))}
		level := []float64{0.40, 0.45, 0.55}[i%3]
		st.Price[i] = level * (1 + 0.3*math.Cos(2*math.Pi*float64(i%24)/24))
	}

	in := &SolverScaleInstance{Cluster: c, State: st, rng: rng}
	in.Lengths = queue.Lengths{Central: make([]float64, j), Local: make([][]float64, n)}
	for t := 0; t < j; t++ {
		in.Lengths.Central[t] = float64(rng.Intn(20))
	}
	for i := 0; i < n; i++ {
		in.Lengths.Local[i] = make([]float64, j)
		for t := 0; t < j; t++ {
			if rng.Float64() < density {
				in.Lengths.Local[i][t] = float64(1 + rng.Intn(25))
				in.ActivePairs++
			}
		}
	}
	return in, nil
}

// Mutate applies one slot's worth of small input drift — a few backlog
// updates on already-active pairs plus a price nudge — without changing which
// pairs are active, so an incremental-refresh solver stays on its in-place
// path. It mirrors the queue evolution between consecutive slot decisions.
func (in *SolverScaleInstance) Mutate() {
	c := in.Cluster
	for step := 0; step < 4; step++ {
		i := in.rng.Intn(c.N())
		for t := range in.Lengths.Local[i] {
			if in.Lengths.Local[i][t] > 0 {
				in.Lengths.Local[i][t] = 1 + float64(in.rng.Intn(25))
			}
		}
	}
	i := in.rng.Intn(c.N())
	in.State.Price[i] = 0.3 + 0.4*in.rng.Float64()
}
