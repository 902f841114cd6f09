package ga

import (
	"fmt"
	"testing"
)

// intSumProblem is a PartialScorer whose partial sums are small
// integers stored in float64. Every sum stays far below 2^53, so delta
// updates are exact (no reassociation error): an incremental run and an
// exact rescore through scalar Score must produce byte-identical
// trajectories, which is
// the strongest possible check of the delta bookkeeping (resync marks,
// tail-swap deltas, periodic re-walks, the spare-slot child).
type intSumProblem struct {
	weights [][]float64 // weights[gene][allele], small integers
	alleles int
}

func newIntSumProblem(genes, alleles int) *intSumProblem {
	w := make([][]float64, genes)
	for g := range w {
		w[g] = make([]float64, alleles)
		for a := range w[g] {
			w[g][a] = float64((g*31 + a*17 + 5) % 97)
		}
	}
	return &intSumProblem{weights: w, alleles: alleles}
}

func (p *intSumProblem) Genes() int     { return len(p.weights) }
func (p *intSumProblem) Alleles() int   { return p.alleles }
func (p *intSumProblem) Seeds() [][]int { return nil }
func (p *intSumProblem) Score(ind []int) float64 {
	sums := make([]float64, 2)
	p.InitSums(ind, sums)
	return p.ScoreSums(sums)
}
func (p *intSumProblem) SumCount() int { return 2 }
func (p *intSumProblem) InitSums(ind []int, sums []float64) {
	var s0, s1 float64
	for g, a := range ind {
		s0 += p.weights[g][a]
		s1 += p.weights[g][a] * p.weights[g][a]
	}
	sums[0], sums[1] = s0, s1
}
func (p *intSumProblem) UpdateSums(sums []float64, gene, oldAllele, newAllele int) {
	o, n := p.weights[gene][oldAllele], p.weights[gene][newAllele]
	sums[0] += n - o
	sums[1] += n*n - o*o
}
func (p *intSumProblem) ScoreSums(sums []float64) float64 {
	// Reward large linear sum, penalize spread; integer-valued inputs
	// keep the arithmetic exact through the division.
	return sums[0] - sums[1]/1024
}

// scalarOnly hides a problem's partial-sum methods, so the engine
// scores it through the reference path: one Score call per evaluation.
type scalarOnly struct{ Problem }

func runPair(t *testing.T, cfg Config) (inc, exact *Result) {
	t.Helper()
	p := newIntSumProblem(24, 8)
	ri, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(scalarOnly{p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ri, re
}

func TestIncrementalMatchesExactRescoreBitwise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopSize = 50
	cfg.Generations = 200 // crosses several sumRefreshEvery boundaries
	for _, sel := range []Selection{RankSelection, RouletteSelection, TournamentSelection} {
		cfg.Selection = sel
		inc, exact := runPair(t, cfg)
		if len(inc.History) != len(exact.History) {
			t.Fatalf("sel %v: history lengths differ: %d vs %d", sel, len(inc.History), len(exact.History))
		}
		for i := range inc.History {
			if inc.History[i] != exact.History[i] {
				t.Fatalf("sel %v gen %d: incremental history %v differs from exact %v", sel, i, inc.History[i], exact.History[i])
			}
		}
		if fmt.Sprint(inc.Best) != fmt.Sprint(exact.Best) || inc.BestScore != exact.BestScore {
			t.Fatalf("sel %v: best diverged: %v (%v) vs %v (%v)", sel, inc.Best, inc.BestScore, exact.Best, exact.BestScore)
		}
	}
}

func TestIncrementalWorkerCountInvariance(t *testing.T) {
	// Same seed must yield a byte-identical strategy regardless of the
	// worker count — incremental scoring is serial on each island by
	// construction.
	p := newIntSumProblem(24, 8)
	cfg := DefaultConfig()
	cfg.PopSize = 50
	cfg.Generations = 120
	var ref *Result
	for i, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		res, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if fmt.Sprint(res.Best) != fmt.Sprint(ref.Best) || res.BestScore != ref.BestScore {
			t.Fatalf("workers=%d: best %v (%v) differs from workers=1 best %v (%v)",
				workers, res.Best, res.BestScore, ref.Best, ref.BestScore)
		}
		for g := range ref.History {
			if res.History[g] != ref.History[g] {
				t.Fatalf("workers=%d gen %d: history %v vs %v", workers, g, res.History[g], ref.History[g])
			}
		}
	}
}
