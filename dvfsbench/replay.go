package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"npudvfs/internal/classify"
	"npudvfs/internal/core"
	"npudvfs/internal/experiments"
	"npudvfs/internal/ga"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// span is one timed call into a layer during the traced replay.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	// Start and End are nanoseconds since the replay began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the heap bytes allocated while the span was open,
	// children included.
	Alloc uint64 `json:"alloc_bytes"`
	// Count is a layer-specific work count: ops for preprocess.stages,
	// evaluations for ga.search.
	Count int `json:"count,omitempty"`

	alloc0 uint64
}

// tracer keeps spans in memory; they are written out when the
// benchmark ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
	alloc *allocSampler
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), alloc: newAllocSampler()}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, alloc0: t.alloc.read()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = end
	s.Alloc = t.alloc.read() - s.alloc0
	t.open = t.open[:len(t.open)-1]
}

// replayer re-executes requests in-process, one at a time, through the
// public functions of each layer in the order the daemon's submit
// handler, server.generate and buildResponse call them, and times each
// call. Its strategy cache mirrors the daemon's, so a request the
// daemon answered from its cache is a hit here too.
type replayer struct {
	lab     *experiments.Lab
	bundles map[string]*traceio.ModelBundle
	tr      *tracer
	cache   map[string]*traceio.StrategyResponse
}

func newReplayer(lab *experiments.Lab, bundles map[string]*traceio.ModelBundle) *replayer {
	return &replayer{lab: lab, bundles: bundles, tr: newTracer(), cache: map[string]*traceio.StrategyResponse{}}
}

// replayed is one replayed request.
type replayed struct {
	resp     *traceio.StrategyResponse
	strategy []byte // compact strategy bytes
	cached   bool
	root     int // span ID of the request
}

// serve replays one submission.
func (r *replayer) serve(ctx context.Context, q *request) (*replayed, error) {
	t := r.tr
	t.req = q.ID
	root := t.begin("request")
	defer t.end(root)

	// handleSubmit: read and decode the body, resolve the workload.
	rd, _ := q.body()
	s := t.begin("traceio.decode")
	raw, err := io.ReadAll(rd)
	if err != nil {
		t.end(s)
		return nil, err
	}
	var req traceio.StrategyRequest
	err = decodeStrict(raw, &req)
	if err == nil && req.Workload != "" {
		// For a named request Resolve is the registry build; it gets
		// its own layer.
		t.end(s)
		s = t.begin("workload.byname")
	}
	var m *workload.Model
	if err == nil {
		m, err = req.Resolve()
	}
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("traceio.fingerprint")
	key := traceio.CacheKey(traceio.Fingerprint(m.Trace), req.Search)
	t.end(s)

	if resp, ok := r.cache[key]; ok {
		return &replayed{resp: resp, strategy: resp.Strategy, cached: true, root: root}, nil
	}
	resp, err := r.generate(ctx, m, req.Search)
	if err != nil {
		return nil, err
	}
	r.cache[key] = resp
	return &replayed{resp: resp, strategy: resp.Strategy, root: root}, nil
}

// generate mirrors server.generate, core.GenerateContext and
// buildResponse.
func (r *replayer) generate(ctx context.Context, m *workload.Model, spec traceio.SearchSpec) (*traceio.StrategyResponse, error) {
	t := r.tr
	g := t.begin("server.generate")
	defer t.end(g)

	var (
		ms  *experiments.Models
		err error
	)
	if b, ok := r.bundles[strings.ToLower(m.Name)]; ok {
		s := t.begin("experiments.bundle_models")
		ms, err = r.lab.ModelsFromBundle(m, b)
		t.end(s)
	} else {
		s := t.begin("experiments.build_models")
		ms, err = r.lab.BuildModels(m, true)
		t.end(s)
	}
	if err != nil {
		return nil, err
	}

	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = spec.TargetLoss
	cfg.FAIMicros = spec.FAIMillis.Micros()
	cfg.GA.PopSize = spec.Pop
	cfg.GA.Generations = spec.Gens
	cfg.GA.Seed = spec.Seed
	in := ms.Input(r.lab.Chip)

	s := t.begin("classify.trace")
	results := classify.Trace(in.Profile)
	t.end(s)

	s = t.begin("preprocess.stages")
	stages, err := preprocess.Stages(in.Profile, results, float64(cfg.FAIMicros))
	t.tagCount(s, len(in.Profile.Records))
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("core.evaluator")
	ev, err := core.NewEvaluator(in, cfg, stages)
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("ga.search")
	res, err := ga.RunContext(ctx, ev.Problem(), cfg.GA)
	t.end(s)
	if err != nil {
		return nil, err
	}
	t.tagCount(s, res.Evaluations)

	strat := ev.Strategy(res.Best)

	// buildResponse.
	b := t.begin("server.build_response")
	defer t.end(b)
	s = t.begin("traceio.write_strategy")
	var pretty, compact bytes.Buffer
	err = traceio.WriteStrategy(&pretty, strat)
	if err == nil {
		err = json.Compact(&compact, pretty.Bytes())
	}
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("core.evaluator")
	ev2, err := core.NewEvaluator(in, cfg, stages)
	t.end(s)
	if err != nil {
		return nil, err
	}
	baseline := make([]int, ev2.Genes())
	for i := range baseline {
		baseline[i] = ev2.BaselineIndex()
	}
	s = t.begin("core.predict")
	basePred, err := ev2.Predict(baseline)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("core.predict")
	bestPred, err := ev2.Predict(res.Best)
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("traceio.fingerprint")
	fp := traceio.Fingerprint(ms.Workload.Trace)
	t.end(s)

	return &traceio.StrategyResponse{
		Workload:    m.Name,
		Fingerprint: fp,
		Strategy:    json.RawMessage(compact.Bytes()),
		Search:      spec,
		Stages:      len(stages),
		Switches:    strat.Switches(),
		Evaluations: res.Evaluations,
		BestScore:   res.BestScore,
		Predicted: traceio.PredictedDeltas{
			BaselineTimeMicros: basePred.TimeMicros,
			TimeMicros:         bestPred.TimeMicros,
			BaselineSoCWatts:   basePred.SoCWatts,
			SoCWatts:           bestPred.SoCWatts,
			PerfLossPct:        100 * (float64(bestPred.TimeMicros)/float64(basePred.TimeMicros) - 1),
			SoCSavingPct:       100 * (1 - float64(bestPred.SoCWatts)/float64(basePred.SoCWatts)),
		},
	}, nil
}

func (t *tracer) tagCount(id, n int) { t.spans[id].Count = n }

// decodeStrict decodes a request body as the daemon's submit handler
// does.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func compactRaw(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compacting strategy: %w", err)
	}
	return buf.Bytes(), nil
}

// selfTimes folds the spans into per-request, per-layer self time (a
// span's duration minus the time its children cover), allocated bytes,
// call counts and work counts.
type layerUse struct {
	selfNs int64
	alloc  uint64
	calls  int
	count  int
	callNs []int64 // per-call inclusive durations
}

func selfTimes(spans []span) map[int]map[string]*layerUse {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]*layerUse{}
	for i, s := range spans {
		byLayer := out[s.Req]
		if byLayer == nil {
			byLayer = map[string]*layerUse{}
			out[s.Req] = byLayer
		}
		u := byLayer[s.Name]
		if u == nil {
			u = &layerUse{}
			byLayer[s.Name] = u
		}
		d := s.End - s.Start
		u.selfNs += d - child[i]
		u.alloc += s.Alloc
		u.calls++
		u.count += s.Count
		u.callNs = append(u.callNs, d)
	}
	return out
}
