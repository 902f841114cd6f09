// Package ga implements the genetic-algorithm search used for DVFS
// strategy generation (Sect. 6.3): individuals are integer gene
// vectors (one frequency index per candidate stage), selection is
// score-based, crossover swaps the last k genes of two parents, and
// mutation rewrites a random burst of genes.
//
// The engine is an island model: the population is partitioned into N
// islands (Config.Islands), each with its own RNG stream and recycled
// gene/partial-sum slabs, so islands share no mutable state on the hot
// path and run on the worker pool without locks.
// Islands exchange their elite individuals over a fixed ring topology
// at a fixed generation cadence (Config.MigrationEvery), so the whole
// trajectory — including every migration — is a pure function of the
// config and the problem, byte-identical at any worker count (the
// determinism contract; see DESIGN.md §13).
//
// Problems implementing PartialScorer (the evaltab-backed evaluators)
// get incremental (delta) scoring: a child produced by crossover or a
// mutation burst inherits a parent's partial sums and applies
// O(changed genes) updates instead of an O(genes) re-walk. The
// periodic full re-walks go through BatchPartialScorer's gene-major
// sweep over the SoA table when the problem provides one. Every other
// problem gets exactly one Score call per evaluation — the reference
// path. Neither path changes the stochastic trajectory: the RNG draw
// sequence is identical across scoring paths and worker counts, so
// equal seeds reproduce runs.
//
// Run and RunContext are one-shot conveniences; callers re-searching
// the same problem shape (the dvfsd serving path, the adaptive
// re-optimizer) should hold an Engine, whose Run reuses every slab
// across searches and allocates nothing in steady state.
package ga

import (
	"context"
	"math"
)

// Problem defines the search space and objective.
type Problem interface {
	// Genes returns the individual length (number of stages).
	Genes() int
	// Alleles returns the number of values a gene can take (number of
	// supported frequency points).
	Alleles() int
	// Score returns the fitness of an individual; higher is better.
	// Must be safe for concurrent calls. A NaN score is treated as
	// -Inf fitness (worst), so infeasible individuals may signal
	// themselves with NaN without corrupting selection. Problems
	// without partial sums get exactly one Score call per evaluation,
	// repeated individuals included, so Score may have side effects
	// (the hardware-in-the-loop baseline spends real time in it).
	Score(individual []int) float64
	// Seeds returns individuals to include in the first generation
	// (the paper seeds the baseline all-max-frequency individual and
	// a prior LFC/HFC individual). May be nil. The engine copies the
	// vectors, so implementations may return shared storage.
	Seeds() [][]int
}

// PartialScorer is an optional Problem extension enabling incremental
// (delta) scoring. A conforming problem's fitness must be a pure
// function of a fixed-size vector of running sums over the gene
// vector: InitSums fills the vector with a full walk in ascending
// gene order, UpdateSums adjusts it for one gene change in O(1), and
// ScoreSums maps it to the fitness, with ScoreSums∘InitSums ≡ Score
// bit-identically. The engine then scores a child by copying a
// parent's sums and applying one delta per changed gene; the result
// may differ from a full re-walk by floating-point reassociation
// only, and the engine re-walks every individual at a fixed
// generation cadence to keep the drift bounded (well under 1e-9
// relative; see the equivalence tests). All methods must be safe for
// concurrent calls, like Score.
type PartialScorer interface {
	Problem
	// SumCount returns the length of the partial-sum vector.
	SumCount() int
	// InitSums fills sums (length SumCount) from a full walk of ind.
	InitSums(ind []int, sums []float64)
	// UpdateSums applies the delta of rewriting one gene from
	// oldAllele to newAllele.
	UpdateSums(sums []float64, gene, oldAllele, newAllele int)
	// ScoreSums maps accumulated sums to the fitness.
	ScoreSums(sums []float64) float64
}

// BatchPartialScorer is the batch form of PartialScorer.InitSums:
// InitSumsBatch fills count partial-sum vectors (candidate c's sums
// occupy sums[c*SumCount() : (c+1)*SumCount()]) from full walks of
// count candidates stored back to back in genes. Results must be
// bit-identical to per-candidate InitSums — the engine uses it for
// the periodic drift-bounding re-walks of whole cohorts.
type BatchPartialScorer interface {
	PartialScorer
	InitSumsBatch(genes []int, count int, sums []float64)
}

// Selection picks the parent-selection scheme. All schemes are
// score-based (selection likelihood increases with score, Sect. 6.3.3);
// they differ in how much pressure they apply when score differences
// are small.
type Selection int

const (
	// RankSelection weights parents quadratically by rank. It is the
	// default: the power-minimization objective leaves compliant
	// individuals within fractions of a percent of each other, where
	// raw proportional selection has almost no pressure.
	RankSelection Selection = iota
	// RouletteSelection weights parents proportionally to their
	// (shifted) scores.
	RouletteSelection
	// TournamentSelection picks the best of three uniformly drawn
	// candidates.
	TournamentSelection
)

// Config tunes the search. The paper's production settings are
// PopSize 200, Generations 600, MutationRate 0.15.
type Config struct {
	PopSize       int
	Generations   int
	MutationRate  float64
	CrossoverRate float64
	// Elitism is how many of the best individuals survive unchanged
	// into the next generation of each island, making each island's
	// best score (and hence the global History) monotone.
	Elitism int
	// Seed drives all stochastic choices; equal seeds reproduce runs.
	Seed int64
	// Workers bounds how many islands breed and score concurrently;
	// 0 means GOMAXPROCS. The worker count never changes results —
	// only wall-clock.
	Workers int
	// Selection picks the parent-selection scheme.
	Selection Selection
	// StaleLimit, when positive, stops the search early after this
	// many consecutive generations without best-score improvement.
	// With more than one island, staleness is evaluated at migration
	// barriers, so the search may overrun the limit by up to
	// MigrationEvery-1 generations before stopping.
	StaleLimit int
	// Islands is the number of islands the population is partitioned
	// into. 0 derives a default from GOMAXPROCS and PopSize (see
	// DefaultIslands) — deliberately never from Workers, so changing
	// the worker count alone can never change the trajectory. Fixing
	// Islands explicitly makes results machine-independent as well.
	Islands int
	// MigrationEvery is the fixed generation cadence at which islands
	// exchange elites (and the barrier cadence for history/staleness
	// aggregation). 0 means DefaultMigrationEvery; negative disables
	// migration. Irrelevant with one island.
	MigrationEvery int
	// Migrants is how many elite individuals each island sends to its
	// ring successor per migration. 0 means DefaultMigrants; negative
	// disables migration. Clamped to half the smallest island.
	Migrants int
	// WarmStart seeds the first generation with previous-search
	// individuals (e.g. Result.Population from a prior run),
	// distributed round-robin across islands after Problem.Seeds().
	// The engine copies the vectors. Length-validated like seeds.
	WarmStart [][]int
	// CapturePopulation asks the engine to return the final population
	// (island-major, best-first per island) in Result.Population, for
	// warm-starting a later search.
	CapturePopulation bool
}

// DefaultConfig returns the paper's search settings.
func DefaultConfig() Config {
	return Config{
		PopSize:       200,
		Generations:   600,
		MutationRate:  0.15,
		CrossoverRate: 0.7,
		Elitism:       2,
		Seed:          1,
	}
}

// Result reports the outcome of a search. Results returned by Run and
// RunContext are defensive copies owned by the caller; results
// returned by Engine.Run alias engine-owned storage (see Engine.Run).
type Result struct {
	// Best is the fittest individual found across all islands.
	Best []int
	// BestScore is its fitness.
	BestScore float64
	// History records the best score across islands after each
	// generation — the convergence series of Fig. 17.
	History []float64
	// Evaluations counts individuals evaluated, the paper's
	// "strategies assessed" number, summed over islands in island
	// order. For problems without partial sums it equals the number
	// of Score calls.
	Evaluations int
	// Generations counts generations actually run (equal to
	// Config.Generations unless StaleLimit stopped the search early).
	Generations int
	// Islands is the island count the search ran with.
	Islands int
	// Migrations counts individuals transferred between islands.
	Migrations int
	// IslandEvaluations is Evaluations split per island.
	IslandEvaluations []int
	// Population is the final population (island-major, best-first
	// per island), only when Config.CapturePopulation is set — the
	// warm-start input for a follow-up search.
	Population [][]int
}

// Clone returns a deep copy of the result, sharing no storage.
func (r *Result) Clone() *Result {
	c := *r
	c.Best = append([]int(nil), r.Best...)
	c.History = append([]float64(nil), r.History...)
	c.IslandEvaluations = append([]int(nil), r.IslandEvaluations...)
	if r.Population != nil {
		c.Population = make([][]int, len(r.Population))
		for i, ind := range r.Population {
			c.Population[i] = append([]int(nil), ind...)
		}
	}
	return &c
}

// sumRefreshEvery is the generation cadence at which incremental
// scoring re-walks every child's sums from scratch. Delta updates
// differ from a re-walk by floating-point reassociation only
// (~1 ulp per touched gene); refreshing every 64 generations bounds
// the accumulated drift orders of magnitude below the 1e-9
// equivalence budget while costing under 2% extra walks.
const sumRefreshEvery = 64

// Run executes the genetic search to completion. It is RunContext
// without a cancellation point.
func Run(p Problem, cfg Config) (*Result, error) {
	//lint:allow ctxflow context-free convenience wrapper; cancellable callers use RunContext
	return RunContext(context.Background(), p, cfg)
}

// RunContext executes the genetic search under a context. Cancellation
// is checked at generation boundaries — a generation is hundreds of
// microsecond-scale Score calls, so the check granularity is
// milliseconds. A cancelled search returns an error wrapping ctx.Err()
// (so errors.Is against context.Canceled / context.DeadlineExceeded
// works) and no Result: partial populations are not exposed because
// callers treat Best as a complete search product.
//
// RunContext builds a fresh Engine per call and deep-copies the
// result, so the returned Result is caller-owned. Repeat searchers
// should hold an Engine instead.
func RunContext(ctx context.Context, p Problem, cfg Config) (*Result, error) {
	e, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(ctx)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// sanitize maps NaN fitness to -Inf. A NaN score (e.g. an infeasible
// individual whose predicted time divides by zero) would otherwise
// poison the selection prefix sums: every comparison against NaN is
// false, so the selection search degenerates to a single index and
// the population collapses onto it. -Inf orders correctly (worst)
// under ranking and all selection schemes.
func sanitize(score float64) float64 {
	if math.IsNaN(score) {
		return math.Inf(-1)
	}
	return score
}

// Compile-time relationships between the optional Problem extensions.
var (
	_ Problem       = PartialScorer(nil)
	_ PartialScorer = BatchPartialScorer(nil)
)
